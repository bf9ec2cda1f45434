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

// termFunc evaluates row i's term for component h on node n under the
// window adjustment adj; h == i asks for ci's self term on n.
type termFunc func(i, h, n int, adj vec4) float64

// sampleTerm evaluates every term sample by sample (referenceLatency).
func sampleTerm(mat *Matrix) termFunc {
	return func(_, h, n int, adj vec4) float64 { return referenceLatency(mat, h, n, adj) }
}

// referenceEntry is the unmemoised entry evaluation: every Table III term
// predicted per entry through term, and every affected stage's maximum
// taken by scanning all of its members. It reads the matrix's state and
// returns L[i][j] and SelfGain[i][j] without writing them.
func referenceEntry(mat *Matrix, i, j int, term termFunc) (l, selfGain float64) {
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
	li := term(i, i, j, vec4{})
	sc.set(i, li)

	// Components remaining on the origin node: U' = U − U_ci.
	for _, h := range mat.nodeComps[a] {
		if h == i {
			continue
		}
		adj := negv(mat.in.Components[h].Demand)
		adj = addv(adj, di, -1)
		sc.set(h, term(i, h, a, adj))
	}
	// Components already on the destination node: U' = U + U_ci.
	for _, h := range mat.nodeComps[j] {
		adj := negv(mat.in.Components[h].Demand)
		adj = addv(adj, di, +1)
		sc.set(h, term(i, h, j, adj))
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
// matrix keeps and every path a row term can take. Five stage slots hold
// a degree-1 model, a convex degree-2 model, nothing (an empty stage
// whose model is nil), a degree-3 model (window path only) and a
// negative-slope degree-1 model whose predictions cross zero at about 60%
// load (floor refusals). Per-component demands carry the controller's 2%
// measurement noise, so no two rows share terms. Nodes host 0, 1, 2, 4
// and 5 components, with windows of 6, 3 and 0 samples (the empty one
// predicts the fallback mean). The windows of nodes 6 (a degree-2 and a
// degree-3 component) and 7 (two degree-1 components) predate their
// components: a light background with no network load, so their base
// coordinates are negative — lifted by some destination shifts, not by
// the others or by any origin shift (clamp refusals; on node 7, also
// destination terms the all-rows flag cannot vouch for but their own
// certificates admit).
func oracleMatrixInput(t *testing.T) MatrixInput {
	t.Helper()
	convex := syntheticSamples(200, 0.01, 21)
	declining := syntheticSamples(200, 0.01, 24)
	for i := range convex {
		convex[i].X *= 1000 * convex[i].X
		declining[i].X = 0.0025 - declining[i].X
	}
	models := make([]*ServiceTimeModel, 5)
	for s, fit := range []struct {
		samples []Sample
		degree  int
	}{
		0: {syntheticSamples(200, 0.01, 20), 1},
		1: {convex, 2},
		3: {syntheticSamples(200, 0.01, 23), 3},
		4: {declining, 1},
	} {
		if fit.samples == nil {
			continue
		}
		model, err := Train(fit.samples, fit.degree)
		if err != nil {
			t.Fatal(err)
		}
		models[s] = model
	}
	hosted := []int{5, 1, 0, 4, 2, 1, 2, 2, 1} // components per node
	src := xrand.New(11)
	populated := []int{0, 1, 3, 4}
	var comps []ComponentState
	for n, count := range hosted {
		for c := 0; c < count; c++ {
			demand := cluster.Vector{0.9, 6, 8, 6}
			for r := range demand {
				demand[r] *= src.LogNormalMean(1, 0.02)
			}
			stage := populated[len(comps)%len(populated)]
			if n == 8 {
				stage = 0
			}
			comps = append(comps, ComponentState{Stage: stage, Node: n, Demand: demand})
		}
	}
	nodeSamples := testNodeSamples(src, len(hosted), comps)
	nodeSamples[4] = nodeSamples[4][:3]
	nodeSamples[5] = nil
	// Nodes 6–8: windows from before their components arrived, with no
	// network load; node 7's bursts to 4× capacity every third sample.
	idle := cluster.DefaultCapacity().Scale(0.02)
	idle[cluster.NetBW] = 0
	burst := cluster.DefaultCapacity().Scale(4)
	burst[cluster.NetBW] = 0
	for _, n := range []int{6, 7, 8} {
		for w := range nodeSamples[n] {
			background := idle
			if n == 7 && w%3 == 2 {
				background = burst
			}
			for r := range background {
				nodeSamples[n][w][r] = background[r] * src.LogNormalMean(1, 0.03)
			}
		}
	}
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

// termTally counts row terms by side (0 origin, 1 destination) and by the
// path closedFormTerm assigns them, plus the window-path terms on empty
// windows and of stages without a closed form.
type termTally struct {
	paths        [2][4]int
	emptyWindow  int
	noClosedForm int
}

// checkRowTerms evaluates every term of every live row of mat with the
// fills' own evaluator (rowTerm) in a private scratch and checks each
// against referenceLatency: bit for bit when it took the window path,
// within tol when it took the closed form. It tallies the terms with the
// evaluator's own predicate.
func checkRowTerms(t *testing.T, mat *Matrix, tol float64, tally *termTally) {
	t.Helper()
	sc := newScratch(mat.in.NumStages, len(mat.scratches[0].window))
	for i := range mat.in.Components {
		if mat.removed[i] {
			continue
		}
		for n, members := range mat.nodeComps {
			for _, h := range members {
				if h == i {
					continue
				}
				sign, adj := mat.rowShift(i, h, n)
				_, path := mat.closedFormTerm(i, h, n, sign, adj)
				side := 1
				if sign < 0 {
					side = 0
				}
				tally.paths[side][path]++
				if path == windowPath {
					if len(mat.in.NodeSamples[n]) == 0 {
						tally.emptyWindow++
					}
					if mat.forms[mat.in.Components[h].Stage].degree == 0 {
						tally.noClosedForm++
					}
				}
				got, want := mat.rowTerm(i, h, n, sc), referenceLatency(mat, h, n, adj)
				if path != closedForm && math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("row %d: window-path term of %d on node %d = %v, reference %v", i, h, n, got, want)
				}
				if math.Abs(got-want) > tol {
					t.Fatalf("row %d: closed-form term of %d on node %d = %v, reference %v (|Δ| %.3g > %.3g)",
						i, h, n, got, want, math.Abs(got-want), tol)
				}
			}
		}
	}
}

// closedFormCell reports whether any term cell (i, j) reads took the
// closed form: the origin terms on ci's node and the destination terms on
// node j.
func closedFormCell(mat *Matrix, i, j int) bool {
	a := mat.alloc[i]
	if j == a {
		return false
	}
	for _, n := range [2]int{a, j} {
		for _, h := range mat.nodeComps[n] {
			if h == i {
				continue
			}
			sign, adj := mat.rowShift(i, h, n)
			if _, path := mat.closedFormTerm(i, h, n, sign, adj); path == closedForm {
				return true
			}
		}
	}
	return false
}

// checkCurrent pins ComponentLatency and CurrentOverall by bits to the
// sample-by-sample evaluation of every component's own window.
func checkCurrent(t *testing.T, mat *Matrix, step int) {
	t.Helper()
	stageMax := make([]float64, mat.in.NumStages)
	for h, c := range mat.in.Components {
		want := referenceLatency(mat, h, mat.alloc[h], negv(c.Demand))
		if got := mat.ComponentLatency(h); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: ComponentLatency(%d) = %v, reference %v", step, h, got, want)
		}
		stageMax[c.Stage] = max(stageMax[c.Stage], want)
	}
	if got, want := mat.CurrentOverall(), OverallLatency(stageMax); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: CurrentOverall() = %v, reference %v", step, got, want)
	}
}

// TestMatrixMatchesUnmemoisedEntries pins the matrix's memoised evaluation
// (self terms per (stage, node), row terms per row, closed-form terms,
// ordered stage maxima) to referenceEntry, the window path evaluated per
// entry and sample by sample: every cell after BuildMatrix, and after
// each Migrate of a whole Algorithm 1 round every cell Algorithm 2
// recomputes, while every other cell keeps its previous bits. It runs at
// 1, 2 and 4 shards. SelfGain, ComponentLatency and CurrentOverall match
// by bits everywhere, and so does L in every cell whose terms all took the
// window path; a cell or row term that took the closed form may differ by
// float rounding, at most 1e-12·CurrentOverall(). The fixture must reach
// every path, counted with the evaluator's own predicate (closedFormTerm).
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
			tol := 1e-12 * mat.CurrentOverall()
			var tally termTally
			checkRowTerms(t, mat, tol, &tally)
			for side, name := range [2]string{"origin", "destination"} {
				if tally.paths[side][closedForm] == 0 {
					t.Errorf("no closed-form %s term", name)
				}
			}
			for path, name := range map[termPath]string{clampRefused: "clamp", floorRefused: "floor"} {
				if tally.paths[0][path]+tally.paths[1][path] == 0 {
					t.Errorf("no term refused by the %s certificate", name)
				}
			}
			if tally.emptyWindow == 0 || tally.noClosedForm == 0 {
				t.Errorf("%d window-path terms on empty windows, %d of stages without a closed form; want each",
					tally.emptyWindow, tally.noClosedForm)
			}
			t.Logf("terms by path (window, closed form, clamp, floor): origin %v, destination %v",
				tally.paths[0], tally.paths[1])

			check := func(step, i, j int) {
				t.Helper()
				l, g := referenceEntry(mat, i, j, sampleTerm(mat))
				if math.Float64bits(mat.SelfGain[i][j]) != math.Float64bits(g) {
					t.Fatalf("step %d: SelfGain[%d][%d] = %v, reference %v", step, i, j, mat.SelfGain[i][j], g)
				}
				if closedFormCell(mat, i, j) {
					if d := math.Abs(mat.L[i][j] - l); d > 1e-12*mat.CurrentOverall() {
						t.Fatalf("step %d: closed-form cell (%d,%d) = %v, reference %v (|Δ| %.3g)",
							step, i, j, mat.L[i][j], l, d)
					}
				} else if math.Float64bits(mat.L[i][j]) != math.Float64bits(l) {
					t.Fatalf("step %d: window-path cell (%d,%d) = %v, reference %v", step, i, j, mat.L[i][j], l)
				}
			}
			checkCurrent(t, mat, 0)
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
				checkCurrent(t, mat, step)
				checkRowTerms(t, mat, 1e-12*mat.CurrentOverall(), &termTally{})
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

// coverageInput is shaped like a large-cluster PCS interval: 194
// components (one segmenting, 192 searching, one aggregating) on 96
// nodes with a degree-1 model, 10-sample windows in which the monitor
// sees every hosted component's demand plus a batch background that is
// absent from a third of the nodes, and per-component demands that carry
// the controller's LogNormalMean(1, 0.02) measurement noise.
func coverageInput(t *testing.T, seed int64) MatrixInput {
	t.Helper()
	const m, k, window = 194, 96, 10
	src := xrand.New(seed)
	model, err := Train(syntheticSamples(200, 0.02, seed), 1)
	if err != nil {
		t.Fatal(err)
	}
	capacity := cluster.DefaultCapacity()
	nodeSamples := make([][]cluster.Vector, k)
	for n := range nodeSamples {
		background := capacity.Scale(0.5 * src.Float64())
		if n%3 == 0 {
			background = cluster.Vector{}
		}
		nodeSamples[n] = make([]cluster.Vector, window)
		for w := range nodeSamples[n] {
			for r := range background {
				nodeSamples[n][w][r] = background[r] * src.LogNormalMean(1, 0.05)
			}
		}
	}
	comps := make([]ComponentState, m)
	for i := range comps {
		stage := 1
		if i == 0 {
			stage = 0
		} else if i == m-1 {
			stage = 2
		}
		demand := cluster.Vector{0.9, 6, 8, 6}
		node := src.Intn(k)
		for w := range nodeSamples[node] {
			nodeSamples[node][w] = nodeSamples[node][w].Add(demand)
		}
		for r := range demand {
			demand[r] *= src.LogNormalMean(1, 0.02)
		}
		comps[i] = ComponentState{Stage: stage, Node: node, Demand: demand}
	}
	return MatrixInput{
		Components:  comps,
		NumStages:   3,
		NumNodes:    k,
		NodeSamples: nodeSamples,
		Lambda:      100,
		Models:      []*ServiceTimeModel{model, model, model},
		Queue:       MG1,
		Params:      DefaultLatencyParams(),
	}
}

// TestClosedFormCoverage guards the closed form's reach: on a
// large-cluster-shaped input at least 95% of a freshly built matrix's row
// terms must take it, counted with the evaluator's own predicate. PCS runs
// on pcs-control take it for about 97% of their terms; the rest are
// mostly origin terms on nodes with no background, where the demand
// noise pushes a shifted coordinate below zero. A change that silently
// sends terms back to the window path fails here.
func TestClosedFormCoverage(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		mat, err := BuildMatrix(coverageInput(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		var paths [4]int
		total := 0
		for i := range mat.in.Components {
			for n, members := range mat.nodeComps {
				for _, h := range members {
					if h == i {
						continue
					}
					sign, adj := mat.rowShift(i, h, n)
					_, path := mat.closedFormTerm(i, h, n, sign, adj)
					paths[path]++
					total++
				}
			}
		}
		share := float64(paths[closedForm]) / float64(total)
		t.Logf("seed %d: %d row terms, by path (window, closed form, clamp, floor) %v: %.2f%% closed form",
			seed, total, paths, 100*share)
		if share < 0.95 {
			t.Errorf("seed %d: %.2f%% of row terms took the closed form, want ≥ 95%%", seed, 100*share)
		}
	}
}

// unitInterval maps any float to [0, 1): its fractional part's magnitude,
// 0 for NaN and the infinities.
func unitInterval(x float64) float64 {
	f := math.Abs(x - math.Trunc(x))
	if math.IsNaN(f) {
		return 0
	}
	return f
}

// meanULPs and varianceULPs bound how far the closed form's moments may sit
// from the window path's, in units of u = 2⁻⁵³ times S, the largest
// magnitude either path adds or evaluates (S² for the variance; see
// windowMoments). In real arithmetic the two are equal (closedFormTerm),
// so the gap is both paths' rounding, bounded here to first order for a
// window of n ≤ 12 samples; Eq. 2 is the same function on both paths.
//
//   - Mean. Each Eq. 1 evaluation, on either path, is within 18u·S: the
//     shifted coordinate's 3 roundings, carried through |p'|·X ≤ 2·P, give
//     6, Horner 4, the weight 1, the resource sum 3, the weight sum 3 and
//     the division 1. The window path's Welford mean adds 3 roundings of
//     values ≤ 2S per sample (6n = 72); the closed form's base mean adds
//     (n+3)/2 ≤ 8, the recorded shift A 8 (2 roundings in a1 or a2, 3 per
//     resource, 3 in the sum), adding it 1, and each degree-2 resource 29:
//     B_r·x̄_r is within 14u·|B_r|·X ≤ 28u·S (3 roundings in B_r, 8 in the
//     node's mean, 2 in x̄_r, 1 in the product), adding it 1. In all
//     2·18 + 72 + 8 + 8 + 1 + 4·29 = 241 ≤ 256.
//   - Variance. Every second moment either path forms is a mean of n
//     products of deviations of magnitude ≤ 2S (a q deviation) or ≤ 4S
//     (B_r times an x_r deviation, as |B_r|·X ≤ 2S), each deviation
//     carrying at most the mean's 256u·S and its own rounding. A product
//     of two ≤ 2S deviations is within 2·2S·258u·S + 4u·S² ≤ 1036u·S², the
//     sum of n adds n·4u·n·S², and the division by n leaves ≤ 1084u·S²; a
//     ≤ 4S factor doubles that. The window path forms one moment, the
//     closed form one plus 2·B_r·cov(q, x_r) (4 × 2 × 2 units) and
//     B_r·B_s·cov(x_r, x_s) (16 × 4 units): 82 units, 88,888u·S², with
//     each path's Eq. 1 errors (18u·S) moving a variance by ≤ 72u·S². In
//     all ≤ 89,032 ≤ 2¹⁷.
const (
	meanULPs     = 256
	varianceULPs = 1 << 17
)

// windowMoments returns the window mean and variance latencyOn feeds
// Eq. 2 for component h on node n under adj — predictWindow, then
// Welford, latencyOn's own operations — and S for row i's closed form of
// that term: the largest of the window mean's magnitude, |A|, every
// |B_r·x̄_r| and, per sample, Σ_r (|w_r|/Σw)·Σ_k |c_k|·X_r^k with X_r =
// |s_r + d_r| + |U_h,r| + |U_ci,r|. That last sum bounds the sample's
// Eq. 1 summands at the base and the shifted coordinate, and so the
// window's largest |q| on both paths, and the summands of A.
func windowMoments(mat *Matrix, i, h, n int, sign float64, adj vec4) (mean, variance, scale float64) {
	comps := mat.in.Components
	stage := comps[h].Stage
	model := mat.in.Models[stage]
	samples := mat.in.NodeSamples[n]
	xs := make([]float64, len(samples))
	model.predictWindow(samples, mat.delta[n], adj, xs)
	var w stats.Welford
	w.AddAll(xs)
	mean, variance = w.Mean(), w.Variance()

	side := 0
	if sign > 0 {
		side = 1
	}
	scale = max(math.Abs(mean), math.Abs(mat.shift[(2*i+side)*len(mat.forms)+stage]))
	f := &mat.forms[stage]
	d, uh, uci := &mat.delta[n], &comps[h].Demand, &comps[i].Demand
	if f.degree == 2 {
		for r := range f.a2 {
			b := 2 * f.a2[r] * (sign * uci[r])
			scale = max(scale, math.Abs(b*((mat.nodeMean[n][r]+d[r])-uh[r])))
		}
	}
	den := 0.0
	for r, reg := range model.Regs {
		if reg != nil && model.Weights[r] != 0 {
			den += model.Weights[r]
		}
	}
	for _, s := range samples {
		sum := 0.0
		for r, reg := range model.Regs {
			if reg == nil || model.Weights[r] == 0 {
				continue
			}
			x := math.Abs(s[r]+d[r]) + math.Abs(uh[r]) + math.Abs(uci[r])
			p := 0.0
			for k, c := range reg.Coef {
				p += math.Abs(c) * math.Pow(x, float64(k))
			}
			sum += math.Abs(model.Weights[r]/den) * p
		}
		scale = max(scale, sum)
	}
	return mean, variance, scale
}

// FuzzClosedFormTerm drives closedFormTerm over signed windows of 0–12
// samples, random demands, a virtual delta and models of degree 1–3,
// rising or falling with contention (the falling ones reach the floor):
// whenever it admits a term, its mean and variance (closedFormMoments)
// must lie within meanULPs·u·S and varianceULPs·u·S² of the window
// path's (windowMoments). A tolerance relative to the term does not fit
// near the floor, where a small mean is the difference of large summands.
//
//	go test -run '^$' -fuzz '^FuzzClosedFormTerm$' -fuzztime 10s ./internal/predictor/
func FuzzClosedFormTerm(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(1), 0.3, 0.5, 0.1)
	f.Add(int64(2), uint8(10), uint8(2), 0.6, 0.2, 0.7)
	f.Add(int64(3), uint8(7), uint8(3), 0.9, 0.9, 0.4)
	f.Add(int64(4), uint8(1), uint8(2), 0.05, 0.5, 0.9)
	f.Add(int64(5), uint8(0), uint8(1), 0.5, 0.5, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, samples, degree uint8, load, shift, slope float64) {
		window := int(samples % 13)
		src := xrand.New(seed)
		training := syntheticSamples(60, 0.02, seed)
		if slope := unitInterval(slope); slope >= 0.5 {
			for i := range training {
				training[i].X = 0.005*slope - training[i].X
			}
		}
		model, err := Train(training, 1+int(degree%3))
		if err != nil {
			t.Fatal(err)
		}
		capacity := cluster.DefaultCapacity()
		level := 1.6*unitInterval(load) - 0.4 // windows may sit below zero
		var nodeSamples [2][]cluster.Vector
		for n := range nodeSamples {
			nodeSamples[n] = make([]cluster.Vector, window)
			for w := range nodeSamples[n] {
				for r := range capacity {
					nodeSamples[n][w][r] = capacity[r] * (level + 0.2*src.Float64())
				}
			}
		}
		comps := make([]ComponentState, 4) // two per node
		for c := range comps {
			comps[c].Node = c % 2
			for r := range capacity {
				comps[c].Demand[r] = 0.15 * capacity[r] * src.Float64()
			}
		}
		mat, err := BuildMatrix(MatrixInput{
			Components:  comps,
			NumStages:   1,
			NumNodes:    2,
			NodeSamples: nodeSamples[:],
			Lambda:      80,
			Models:      []*ServiceTimeModel{model},
			Queue:       MG1,
			Params:      DefaultLatencyParams(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// A virtual delta on each node, with the moments refreshed as
		// Migrate refreshes them.
		for n := range mat.delta {
			for r := range capacity {
				mat.delta[n][r] = capacity[r] * 0.3 * (2*unitInterval(shift) - 1) * src.Float64()
			}
		}
		for h := range comps {
			mat.recordMoments(h, mat.scratches[0])
		}
		for i := range comps {
			for h, c := range comps {
				if h == i {
					continue
				}
				sign, adj := mat.rowShift(i, h, c.Node)
				mean, variance, path := mat.closedFormMoments(i, h, c.Node, sign, adj)
				if path != closedForm {
					continue
				}
				wantMean, wantVariance, scale := windowMoments(mat, i, h, c.Node, sign, adj)
				scale = max(scale, math.Abs(mean))
				const u = 0x1p-53
				if d := math.Abs(mean - wantMean); d > meanULPs*u*scale {
					t.Fatalf("row %d, term %d (σ=%v): closed-form mean %v, window path %v (%.3g u·S, S = %v)",
						i, h, sign, mean, wantMean, d/(u*scale), scale)
				}
				if d := math.Abs(variance - wantVariance); d > varianceULPs*u*scale*scale {
					t.Fatalf("row %d, term %d (σ=%v): closed-form variance %v, window path %v (%.3g u·S², S = %v)",
						i, h, sign, variance, wantVariance, d/(u*scale*scale), scale)
				}
			}
		}
	})
}
