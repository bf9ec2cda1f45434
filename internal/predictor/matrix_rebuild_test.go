package predictor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/xrand"
)

// sameMatrix requires got and want to agree by bits on every L cell, every
// current latency, the overall latency, the allocation, the removed rows
// and SelfGain in every live row.
func sameMatrix(t *testing.T, got, want *Matrix, what string) {
	t.Helper()
	if len(got.L) != len(want.L) || got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: %d×%d matrix, want %d×%d", what, len(got.L), got.NumNodes(), len(want.L), want.NumNodes())
	}
	if math.Float64bits(got.CurrentOverall()) != math.Float64bits(want.CurrentOverall()) {
		t.Fatalf("%s: CurrentOverall() = %v, want %v", what, got.CurrentOverall(), want.CurrentOverall())
	}
	for i := range want.L {
		if got.alloc[i] != want.alloc[i] || got.Removed(i) != want.Removed(i) {
			t.Fatalf("%s: row %d on node %d (removed %v), want node %d (removed %v)",
				what, i, got.alloc[i], got.Removed(i), want.alloc[i], want.Removed(i))
		}
		if math.Float64bits(got.cur[i]) != math.Float64bits(want.cur[i]) {
			t.Fatalf("%s: cur[%d] = %v, want %v", what, i, got.cur[i], want.cur[i])
		}
		for j := range want.L[i] {
			if math.Float64bits(got.L[i][j]) != math.Float64bits(want.L[i][j]) {
				t.Fatalf("%s: L[%d][%d] = %v, want %v", what, i, j, got.L[i][j], want.L[i][j])
			}
			if !want.Removed(i) && math.Float64bits(got.SelfGain(i, j)) != math.Float64bits(want.SelfGain(i, j)) {
				t.Fatalf("%s: SelfGain(%d, %d) = %v, want %v", what, i, j, got.SelfGain(i, j), want.SelfGain(i, j))
			}
		}
	}
}

// sameRound drives a whole Algorithm 1 round through got and want in
// lockstep: the same Best at every step, by bits, and sameMatrix after
// every Migrate.
func sameRound(t *testing.T, got, want *Matrix, what string) {
	t.Helper()
	for step := 1; ; step++ {
		i, j, gain, ok := got.Best()
		wi, wj, wgain, wok := want.Best()
		if i != wi || j != wj || math.Float64bits(gain) != math.Float64bits(wgain) || ok != wok {
			t.Fatalf("%s step %d: Best() = (%d, %d, %v, %v), want (%d, %d, %v, %v)",
				what, step, i, j, gain, ok, wi, wj, wgain, wok)
		}
		if !ok {
			return
		}
		got.Migrate(i, j)
		want.Migrate(i, j)
		sameMatrix(t, got, want, fmt.Sprintf("%s after migration %d", what, step))
	}
}

// TestRebuildMatchesFreshBuild rebuilds one matrix, in place, through a
// sequence of inputs, each time after a whole Algorithm 1 round has left
// it with removed rows, a moved allocation and non-zero deltas. The
// inputs change m, k, the window length, the regression degree (so the
// degree-2 node statistics and cov(q, x_r) appear and vanish) and the
// shard count (1 ↔ 4). After every Rebuild the matrix must match a fresh
// BuildMatrix of the same input by bits (sameMatrix), and so must every
// step of the next round (sameRound).
func TestRebuildMatchesFreshBuild(t *testing.T) {
	oracle := oracleMatrixInput(t)
	pools := map[int]*shard.Pool{2: shard.NewPool(2), 4: shard.NewPool(4)}
	for _, p := range pools {
		defer p.Close()
	}
	sharded := func(in MatrixInput, shards int) MatrixInput {
		in.Pool = pools[shards]
		return in
	}
	short := testMatrixInput(t, 24, 8, 80, 5)
	for n := range short.NodeSamples {
		short.NodeSamples[n] = short.NodeSamples[n][:3]
	}
	shapes := []struct {
		name string
		in   MatrixInput
	}{
		{"oracle (degrees 1-3, windows 0-6)", oracle},
		{"degree 1, 40×8", testMatrixInput(t, 40, 8, 80, 3)},
		{"large cluster 194×96, window 10", coverageInput(t, 1)},
		{"oracle at 4 shards", sharded(oracle, 4)},
		{"degree 1, 24×8, window 3", short},
		{"oracle again", oracle},
		{"large cluster at 2 shards", sharded(coverageInput(t, 3), 2)},
		{"degree 1, 6×4", testMatrixInput(t, 6, 4, 60, 7)},
	}
	var kept *Matrix
	for _, shape := range shapes {
		if kept == nil {
			var err error
			if kept, err = BuildMatrix(shape.in); err != nil {
				t.Fatal(err)
			}
		} else if err := kept.Rebuild(shape.in); err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		fresh, err := BuildMatrix(shape.in)
		if err != nil {
			t.Fatal(err)
		}
		sameMatrix(t, kept, fresh, shape.name)
		sameRound(t, kept, fresh, shape.name)
	}

	// A rejected input leaves the matrix as it was.
	bad := shapes[len(shapes)-1].in
	bad.Components = nil
	before, err := BuildMatrix(shapes[len(shapes)-1].in)
	if err != nil {
		t.Fatal(err)
	}
	sameRound(t, before, mustBuild(t, shapes[len(shapes)-1].in), "reference")
	if err := kept.Rebuild(bad); err == nil {
		t.Fatal("Rebuild accepted an input with no components")
	}
	sameMatrix(t, kept, before, "after a rejected Rebuild")
}

// mustBuild builds in or fails the test.
func mustBuild(t *testing.T, in MatrixInput) *Matrix {
	t.Helper()
	mat, err := BuildMatrix(in)
	if err != nil {
		t.Fatal(err)
	}
	return mat
}

// fullScanBest is Best without the row bounds: every cell of every live
// row visited in order under the same tie rule.
func fullScanBest(mat *Matrix) (comp, node int, gain float64, ok bool) {
	const tie = 1e-12
	comp, node = -1, -1
	for i := range mat.L {
		if mat.removed[i] {
			continue
		}
		for j := range mat.L[i] {
			if j == mat.alloc[i] {
				continue
			}
			v := mat.L[i][j]
			switch {
			case comp == -1 || v > gain+tie:
				comp, node, gain = i, j, v
			case v > gain-tie && mat.SelfGain(i, j) > mat.SelfGain(comp, node):
				comp, node, gain = i, j, v
			}
		}
	}
	return comp, node, gain, comp >= 0
}

// checkBest requires every live row's bound to cover its off-node cells
// (NaN aside) and Best to return fullScanBest's result, by bits.
func checkBest(t *testing.T, mat *Matrix, what string) {
	t.Helper()
	for i := range mat.L {
		if mat.removed[i] {
			continue
		}
		for j, v := range mat.L[i] {
			if j != mat.alloc[i] && v > mat.rowBound[i] {
				t.Fatalf("%s: L[%d][%d] = %v above the row's bound %v", what, i, j, v, mat.rowBound[i])
			}
		}
	}
	i, j, gain, ok := mat.Best()
	wi, wj, wgain, wok := fullScanBest(mat)
	if i != wi || j != wj || math.Float64bits(gain) != math.Float64bits(wgain) || ok != wok {
		t.Fatalf("%s: Best() = (%d, %d, %v, %v), full scan (%d, %d, %v, %v)", what, i, j, gain, ok, wi, wj, wgain, wok)
	}
}

// craftCells overwrites every cell of mat, and the current latencies and
// self terms SelfGain derives from, with values drawn from src: a few
// gains, offsets inside and at the edge of the 1e-12 tie band, NaN, ±Inf
// and a spread of ordinary values. It removes each row with probability
// removeShare and resets every bound, as a fill would.
func craftCells(mat *Matrix, src *xrand.Source, removeShare float64) {
	levels := []float64{0, 1e-3, 2.5e-3, 2.5e-3 + 1e-12, 7e-3}
	offsets := []float64{0, 1e-13, -1e-13, 9e-13, -9e-13, 1e-12, -1e-12, 2e-12, -2e-12}
	value := func() float64 {
		switch r := src.Float64(); {
		case r < 0.03:
			return math.NaN()
		case r < 0.05:
			return math.Inf(1)
		case r < 0.08:
			return math.Inf(-1)
		case r < 0.2:
			return 1e-2 * (src.Float64() - 0.5)
		default:
			return levels[src.Intn(len(levels))] + offsets[src.Intn(len(offsets))]
		}
	}
	selfLevels := []float64{1e-3, 1e-3 + 1e-15, 2e-3, 3e-3}
	for i := range mat.cur {
		mat.cur[i] = selfLevels[src.Intn(len(selfLevels))]
	}
	for n := range mat.selfLat {
		mat.selfLat[n] = selfLevels[src.Intn(len(selfLevels))]
	}
	for i := range mat.L {
		for j := range mat.L[i] {
			if j != mat.alloc[i] {
				mat.L[i][j] = value()
			}
		}
		mat.removed[i] = src.Float64() < removeShare
		mat.resetBound(i)
	}
}

// TestBestMatchesFullScan pins the row-bounded Best to the full scan
// (fullScanBest), and every row bound to its row's cells, after
// BuildMatrix and after each Migrate of a whole Algorithm 1 round on the
// oracle and large-cluster inputs at 1, 2 and 4 shards; then on
// hand-built matrices: gains inside the tie band where SelfGain decides,
// a row whose bound sits one ulp above gain − 1e-12, NaN and ±Inf cells,
// every row removed, and random mixes of all of them.
func TestBestMatchesFullScan(t *testing.T) {
	for _, input := range []struct {
		name string
		in   MatrixInput
	}{{"oracle", oracleMatrixInput(t)}, {"large cluster", coverageInput(t, 1)}} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", input.name, shards), func(t *testing.T) {
				pool := shard.NewPool(shards)
				defer pool.Close()
				in := input.in
				in.Pool = pool
				mat := mustBuild(t, in)
				checkBest(t, mat, "build")
				for step := 1; ; step++ {
					i, j, _, ok := mat.Best()
					if !ok {
						break
					}
					mat.Migrate(i, j)
					checkBest(t, mat, fmt.Sprintf("after migration %d", step))
				}
			})
		}
	}

	t.Run("hand-built", func(t *testing.T) {
		mat := mustBuild(t, testMatrixInput(t, 6, 4, 50, 8))
		set := func(cells map[[2]int]float64) {
			for i := range mat.L {
				for j := range mat.L[i] {
					if j != mat.alloc[i] {
						mat.L[i][j] = -1
					}
				}
			}
			for c, v := range cells {
				if c[1] == mat.alloc[c[0]] {
					t.Fatalf("cell %v is on its row's own node", c)
				}
				mat.L[c[0]][c[1]] = v
			}
			for i := range mat.L {
				mat.removed[i] = false
				mat.resetBound(i)
			}
		}
		off := func(i, n int) int { return (mat.alloc[i] + n) % mat.NumNodes() }
		const g = 2e-3

		// Later rows inside the band: SelfGain decides between them.
		set(map[[2]int]float64{{0, off(0, 1)}: g, {3, off(3, 1)}: g + 5e-13, {5, off(5, 2)}: g - 5e-13})
		checkBest(t, mat, "gains inside the band")

		// A row whose bound is one ulp above gain − 1e-12 must be scanned:
		// its cell passes the second branch when its SelfGain is larger.
		edge := math.Nextafter(g-1e-12, math.Inf(1))
		set(map[[2]int]float64{{0, off(0, 1)}: g, {4, off(4, 1)}: edge})
		for _, selfFirst := range []bool{true, false} {
			mat.cur[0], mat.cur[4] = 1, 1
			if selfFirst {
				mat.cur[0] = 2
			} else {
				mat.cur[4] = 2
			}
			checkBest(t, mat, fmt.Sprintf("a bound one ulp above gain − tie (row 0's SelfGain larger: %v)", selfFirst))
		}
		// At exactly gain − 1e-12 the row is skipped, and no cell of it
		// could pass either branch.
		set(map[[2]int]float64{{0, off(0, 1)}: g, {4, off(4, 1)}: g - 1e-12})
		checkBest(t, mat, "a bound at gain − tie")

		// NaN and ±Inf cells, first and later.
		set(map[[2]int]float64{{0, off(0, 1)}: math.NaN(), {1, off(1, 1)}: g, {2, off(2, 2)}: math.Inf(-1)})
		checkBest(t, mat, "a NaN first cell")
		set(map[[2]int]float64{{0, off(0, 1)}: g, {2, off(2, 1)}: math.Inf(1), {3, off(3, 1)}: math.Inf(1)})
		checkBest(t, mat, "+Inf cells")
		set(map[[2]int]float64{{1, off(1, 3)}: math.NaN(), {4, off(4, 2)}: math.NaN()})
		for i := range mat.L {
			for j := range mat.L[i] {
				if j != mat.alloc[i] {
					mat.L[i][j] = math.NaN()
				}
			}
			mat.resetBound(i)
		}
		checkBest(t, mat, "every cell NaN")

		// Every row removed.
		for i := range mat.removed {
			mat.removed[i] = true
		}
		if _, _, _, ok := mat.Best(); ok {
			t.Fatal("Best found a candidate with every row removed")
		}
		checkBest(t, mat, "every row removed")

		for seed := int64(1); seed <= 200; seed++ {
			src := xrand.New(seed)
			craftCells(mat, src, 0.3*src.Float64())
			checkBest(t, mat, fmt.Sprintf("random mix %d", seed))
		}
	})
}

// FuzzBestMatchesFullScan drives the row-bounded Best against the full
// scan (checkBest) on a random input of 1–3 stages over 2–9 nodes: through
// a whole Algorithm 1 round of real fills and updates, then on crafted
// cells (craftCells) with tie-band offsets, NaN, ±Inf and removed rows.
//
//	go test -run '^$' -fuzz '^FuzzBestMatchesFullScan$' -fuzztime 10s ./internal/predictor/
func FuzzBestMatchesFullScan(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), uint8(2), 0.3)
	f.Add(int64(2), uint8(12), uint8(5), uint8(1), 0.0)
	f.Add(int64(3), uint8(3), uint8(2), uint8(3), 0.9)
	f.Add(int64(4), uint8(20), uint8(9), uint8(1), 1.0)
	f.Fuzz(func(t *testing.T, seed int64, comps, nodes, stages uint8, removeShare float64) {
		m, k, s := 1+int(comps%24), 2+int(nodes%8), 1+int(stages%3)
		src := xrand.New(seed)
		model, err := Train(syntheticSamples(60, 0.02, seed), 1)
		if err != nil {
			t.Fatal(err)
		}
		states := make([]ComponentState, m)
		for i := range states {
			states[i] = ComponentState{Stage: src.Intn(s), Node: src.Intn(k)}
			for r := range states[i].Demand {
				states[i].Demand[r] = cluster.DefaultCapacity()[r] * 0.1 * src.LogNormalMean(1, 0.3)
			}
		}
		models := make([]*ServiceTimeModel, s)
		for st := range models {
			models[st] = model
		}
		mat, err := BuildMatrix(MatrixInput{
			Components:  states,
			NumStages:   s,
			NumNodes:    k,
			NodeSamples: testNodeSamples(src, k, states),
			Lambda:      100 * src.Float64(),
			Models:      models,
			Queue:       MG1,
			Params:      DefaultLatencyParams(),
		})
		if err != nil {
			t.Fatal(err)
		}
		checkBest(t, mat, "build")
		for step := 1; ; step++ {
			i, j, _, ok := mat.Best()
			if !ok {
				break
			}
			mat.Migrate(i, j)
			checkBest(t, mat, fmt.Sprintf("after migration %d", step))
		}
		craftCells(mat, src, unitInterval(removeShare))
		checkBest(t, mat, "crafted cells")
	})
}
