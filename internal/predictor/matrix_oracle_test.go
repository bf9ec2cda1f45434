package predictor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// refScratch is referenceEntry's own override workspace, independent of
// the matrix's per-shard scratches.
type refScratch struct {
	overrideIdx []int
	overrideVal []float64
	overrideSet []int
	epoch       int
}

func (sc *refScratch) set(h int, v float64) {
	if sc.overrideSet[h] != sc.epoch {
		sc.overrideIdx = append(sc.overrideIdx, h)
		sc.overrideSet[h] = sc.epoch
	}
	sc.overrideVal[h] = v
}

// referenceLatency is latencyOn evaluated sample by sample: each sample of
// the node's window shifted by the virtual delta plus adj, clamped at zero,
// predicted through Predict and folded by Welford into Eq. 2. An empty
// window yields the fallback mean with zero variance.
func referenceLatency(mat *Matrix, i, node int, adj vec4) float64 {
	model := mat.in.Models[mat.in.Components[i].Stage]
	d := mat.delta[node]
	var w stats.Welford
	for _, s := range mat.in.NodeSamples[node] {
		var bg cluster.Vector
		for r := 0; r < cluster.NumResources; r++ {
			x := s[r] + d[r] + adj[r]
			if x < 0 {
				x = 0
			}
			bg[r] = x
		}
		w.Add(model.Predict(bg))
	}
	meanX, varX := model.FallbackMean, 0.0
	if w.N() > 0 {
		meanX, varX = w.Mean(), w.Variance()
	}
	return ExpectedLatency(mat.in.Queue, meanX, varX, mat.in.Lambda, mat.in.Params)
}

// referenceEntry is the unmemoised entry evaluation: every Table III term
// predicted per entry through referenceLatency, and every affected stage's
// maximum taken by scanning all of its members. It reads the matrix's
// state and returns L[i][j] and SelfGain[i][j] without writing them.
func referenceEntry(mat *Matrix, i, j int) (l, selfGain float64) {
	m := len(mat.in.Components)
	sc := &refScratch{overrideVal: make([]float64, m), overrideSet: make([]int, m)}

	a := mat.alloc[i]
	if j == a {
		return 0, 0
	}
	di := mat.in.Components[i].Demand
	sc.epoch++
	sc.overrideIdx = sc.overrideIdx[:0]

	// ci itself: U' = U_nj (Table III row 1).
	li := referenceLatency(mat, i, j, vec4{})
	sc.set(i, li)

	// Components remaining on the origin node: U' = U − U_ci.
	for _, h := range mat.nodeComps[a] {
		if h == i {
			continue
		}
		adj := negv(mat.in.Components[h].Demand)
		adj = addv(adj, di, -1)
		sc.set(h, referenceLatency(mat, h, a, adj))
	}
	// Components already on the destination node: U' = U + U_ci.
	for _, h := range mat.nodeComps[j] {
		adj := negv(mat.in.Components[h].Demand)
		adj = addv(adj, di, +1)
		sc.set(h, referenceLatency(mat, h, j, adj))
	}

	// Eq. 3–4 with overrides; only stages containing changed components
	// can change.
	overall := 0.0
	for s, members := range mat.stageOf {
		affected := false
		for _, h := range sc.overrideIdx {
			if mat.in.Components[h].Stage == s {
				affected = true
				break
			}
		}
		if !affected {
			overall += mat.stageLat[s]
			continue
		}
		max := 0.0
		for _, h := range members {
			v := mat.cur[h]
			if sc.overrideSet[h] == sc.epoch {
				v = sc.overrideVal[h]
			}
			if v > max {
				max = v
			}
		}
		overall += max
	}

	return mat.overall - overall, mat.cur[i] - li // Eq. 5
}

// oracleMatrixInput builds a matrix input that exercises every cache the
// matrix keeps: three populated stages with distinct models plus an empty
// stage slot whose model is nil, per-component demands carrying the
// controller's 2% measurement noise (so no two rows share destination
// terms), nodes hosting 0, 1, 2, 4 and 5 components, and windows of 6, 3
// and 0 samples (the empty one predicts the fallback mean).
func oracleMatrixInput(t *testing.T) MatrixInput {
	t.Helper()
	const emptyStage = 2
	models := make([]*ServiceTimeModel, 4)
	for s := range models {
		if s == emptyStage {
			continue
		}
		model, err := Train(syntheticSamples(200, 0.01, int64(20+s)), 1+s%2)
		if err != nil {
			t.Fatal(err)
		}
		models[s] = model
	}
	hosted := []int{5, 1, 0, 4, 2, 2} // components per node
	src := xrand.New(11)
	populated := []int{0, 1, 3}
	var comps []ComponentState
	for n, count := range hosted {
		for c := 0; c < count; c++ {
			demand := cluster.Vector{0.9, 6, 8, 6}
			for r := range demand {
				demand[r] *= src.LogNormalMean(1, 0.02)
			}
			stage := populated[len(comps)%len(populated)]
			comps = append(comps, ComponentState{Stage: stage, Node: n, Demand: demand})
		}
	}
	nodeSamples := testNodeSamples(src, len(hosted), comps)
	nodeSamples[2] = nil
	nodeSamples[4] = nodeSamples[4][:3]
	return MatrixInput{
		Components:  comps,
		NumStages:   len(models),
		NumNodes:    len(hosted),
		NodeSamples: nodeSamples,
		Lambda:      90,
		Models:      models,
		Queue:       MG1,
		Params:      DefaultLatencyParams(),
	}
}

// TestMatrixMatchesUnmemoisedEntries pins the matrix's memoised evaluation
// (self terms per (stage, node), origin terms per row, ordered stage
// maxima) to referenceEntry bit for bit: every cell after BuildMatrix, and
// after each Migrate every cell Algorithm 2 recomputes, while every other
// cell keeps its previous bits. It runs at 1, 2 and 4 shards.
func TestMatrixMatchesUnmemoisedEntries(t *testing.T) {
	base := oracleMatrixInput(t)
	m, k := len(base.Components), base.NumNodes
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pool := shard.NewPool(shards)
			defer pool.Close()
			in := base
			in.Pool = pool
			mat, err := BuildMatrix(in)
			if err != nil {
				t.Fatal(err)
			}
			check := func(step, i, j int) {
				t.Helper()
				l, g := referenceEntry(mat, i, j)
				if math.Float64bits(mat.L[i][j]) != math.Float64bits(l) ||
					math.Float64bits(mat.SelfGain[i][j]) != math.Float64bits(g) {
					t.Fatalf("step %d: cell (%d,%d) = (%v, %v), reference (%v, %v)",
						step, i, j, mat.L[i][j], mat.SelfGain[i][j], l, g)
				}
			}
			for i := 0; i < m; i++ {
				for j := 0; j < k; j++ {
					check(0, i, j)
				}
			}

			prevL := make([]float64, m*k)
			prevG := make([]float64, m*k)
			for step := 1; ; step++ {
				comp, to, _, ok := mat.Best()
				if !ok {
					if step <= m {
						t.Fatalf("Best ran out after %d of %d migrations", step-1, m)
					}
					break
				}
				from := mat.Allocation()[comp]
				for i := 0; i < m; i++ {
					copy(prevL[i*k:], mat.L[i])
					copy(prevG[i*k:], mat.SelfGain[i])
				}
				mat.Migrate(comp, to)
				for i := 0; i < m; i++ {
					fullRow := !mat.Removed(i) && (mat.Allocation()[i] == from || mat.Allocation()[i] == to)
					for j := 0; j < k; j++ {
						if !mat.Removed(i) && (fullRow || j == from || j == to) {
							check(step, i, j)
							continue
						}
						if math.Float64bits(mat.L[i][j]) != math.Float64bits(prevL[i*k+j]) ||
							math.Float64bits(mat.SelfGain[i][j]) != math.Float64bits(prevG[i*k+j]) {
							t.Fatalf("step %d: cell (%d,%d) outside Algorithm 2's update changed", step, i, j)
						}
					}
				}
			}
		})
	}
}
