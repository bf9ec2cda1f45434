package predictor

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/stats"
)

// ComponentState is the predictor's view of one component: its stage (which
// selects the trained service-time model), its current node, and its own
// resource demand U_ci (Table III's migration quantum).
type ComponentState struct {
	Stage  int
	Node   int
	Demand cluster.Vector
}

// MatrixInput carries everything needed to build the performance matrix at
// a scheduling interval: the monitored per-node contention windows, the
// monitored arrival rate, and the trained per-stage models.
type MatrixInput struct {
	Components []ComponentState
	NumStages  int
	NumNodes   int
	// NodeSamples[n] is the monitor's window of contention samples for
	// node n; each sample includes the demand of every program currently
	// hosted there (components and batch jobs alike).
	NodeSamples [][]cluster.Vector
	// Lambda is the monitored request arrival rate (every component of a
	// fan-out service sees the full rate).
	Lambda float64
	// Models holds the trained service-time model per stage.
	Models []*ServiceTimeModel
	Queue  QueueModel
	Params LatencyParams
	// Pool, when non-nil, shards matrix construction and the Algorithm 2
	// incremental updates across its workers. Entries are pure functions of
	// state frozen at each barrier and land in disjoint row slots, so the
	// matrix — and every scheduling decision derived from it — is
	// bit-identical at any shard count. A nil Pool evaluates inline.
	Pool *shard.Pool
}

func (in *MatrixInput) validate() error {
	if len(in.Components) == 0 {
		return fmt.Errorf("predictor: no components")
	}
	if in.NumNodes <= 0 || len(in.NodeSamples) != in.NumNodes {
		return fmt.Errorf("predictor: node samples (%d) must cover all %d nodes",
			len(in.NodeSamples), in.NumNodes)
	}
	if len(in.Models) < in.NumStages {
		return fmt.Errorf("predictor: %d models for %d stages", len(in.Models), in.NumStages)
	}
	for i, c := range in.Components {
		if c.Stage < 0 || c.Stage >= in.NumStages {
			return fmt.Errorf("predictor: component %d has stage %d outside [0,%d)", i, c.Stage, in.NumStages)
		}
		if c.Node < 0 || c.Node >= in.NumNodes {
			return fmt.Errorf("predictor: component %d on node %d outside [0,%d)", i, c.Node, in.NumNodes)
		}
		if in.Models[c.Stage] == nil {
			return fmt.Errorf("predictor: no model for stage %d", c.Stage)
		}
	}
	return nil
}

// Matrix is the m×k performance matrix L of §IV-C. Entry L[i][j] is the
// predicted reduction in overall service latency if component ci migrates
// from its current node to node nj (Eq. 5); SelfGain[i][j] is the reduction
// in ci's own latency, used for Algorithm 1's tie-break.
//
// The matrix tracks a virtual allocation: Migrate commits a migration
// within the scheduling round and incrementally updates the affected
// entries per Algorithm 2, without waiting for the physical migration.
//
// Each distinct window prediction is evaluated once per fill region (see
// docs/architecture.md, "Performance-matrix evaluation discipline"): self
// terms once per (stage, node), origin and destination terms once per row
// — in closed form from their component's base-window moments wherever
// two certificates show the closed form exact in reals (closedFormTerm),
// through the window otherwise — and stage maxima read off members kept
// in descending latency order.
type Matrix struct {
	in MatrixInput

	alloc     []int     // virtual allocation A[m]
	delta     []vec4    // per-node signed demand adjustment from virtual moves
	nodeComps [][]int   // node -> component indices under alloc
	cur       []float64 // current predicted latency per component
	stageLat  []float64 // Eq. 3 per stage
	overall   float64   // Eq. 4
	stageOf   [][]int   // stage -> member component indices, cur descending
	removed   []bool    // rows frozen after their component migrated
	onTouched []bool    // Migrate's full-row marks, reused across calls

	// selfLat[s*k+n] is Table III row 1 for any stage-s component moved
	// onto node n: latencyOn reads the component only through its
	// stage's model, so one evaluation serves every member.
	selfLat []float64

	// The closed form's inputs. forms[s] is stage s's Eq. 1 as a shift
	// acts on it. moments[h] describes component h's base window (U − U_h
	// on h's node under the current delta) and is refreshed wherever
	// cur[h] is; covQX[h] adds cov(q, x_r) for degree-2 stages. nodeMin[n]
	// is node n's smallest sample per resource; nodeMax, nodeMean and
	// nodeCov (four rows per node) are its largest samples, their means
	// and covariances, which no virtual move changes. covQX and the last
	// three are nil unless some stage is degree 2.
	forms    []stageForm
	moments  []baseMoments
	covQX    []vec4
	nodeMin  []vec4
	nodeMax  []vec4
	nodeMean []vec4
	nodeCov  []vec4

	// L and SelfGain are exposed read-only to the scheduler. Their rows
	// are capacity-capped windows of one contiguous array.
	L        [][]float64
	SelfGain [][]float64

	// scratches holds one entry-evaluation scratch per pool shard (slot 0
	// doubles as the sequential scratch); computeEntry runs concurrently
	// across rows during fills, so every shard needs private override
	// state.
	scratches []*scratch
}

// scratch is the per-shard workspace of the window path and computeEntry:
// one window of predictions, the current row's terms, and the latency
// overrides a hypothetical migration imposes on co-hosted components,
// folded into per-stage maxima.
type scratch struct {
	// window receives predictWindow's per-sample service times; it is as
	// long as the longest node window.
	window []float64

	// term[h] holds the row loaded by loadRow or loadColumns: the
	// predicted latency of component h once the row's component ci leaves
	// h's node (h on ci's node: U' = U − U_ci) or joins it (h elsewhere:
	// U' = U + U_ci), Table III.
	term []float64

	overrideSet []int     // epoch marker per component: overridden
	stageSet    []int     // epoch marker per stage: holds an override
	stageMax    []float64 // max(0, overrides) per marked stage
	epoch       int
}

func newScratch(m, stages, window int) *scratch {
	return &scratch{
		window:      make([]float64, window),
		term:        make([]float64, m),
		overrideSet: make([]int, m),
		stageSet:    make([]int, stages),
		stageMax:    make([]float64, stages),
	}
}

// override records component h's latency v in the current entry's world
// and folds it into its stage's maximum. Each component is overridden at
// most once per entry.
func (sc *scratch) override(h, stage int, v float64) {
	sc.overrideSet[h] = sc.epoch
	if sc.stageSet[stage] != sc.epoch {
		sc.stageSet[stage] = sc.epoch
		sc.stageMax[stage] = 0
	}
	if v > sc.stageMax[stage] {
		sc.stageMax[stage] = v
	}
}

// BuildMatrix constructs the matrix: current latencies for every component
// (Eq. 1→2), stage and overall latencies (Eq. 3–4), the per-(stage, node)
// self terms, then every entry L[i][j] via the Table III contention
// updates.
func BuildMatrix(in MatrixInput) (*Matrix, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	m := len(in.Components)
	k := in.NumNodes
	stages := in.NumStages
	mat := &Matrix{
		in:        in,
		alloc:     make([]int, m),
		forms:     make([]stageForm, stages),
		moments:   make([]baseMoments, m),
		L:         make([][]float64, m),
		SelfGain:  make([][]float64, m),
		scratches: make([]*scratch, in.Pool.Shards()),
	}
	quad := false
	for s := range mat.forms {
		mat.forms[s] = newStageForm(in.Models[s])
		quad = quad || mat.forms[s].degree == 2
	}
	// One backing array per element type: the per-node and per-component
	// vectors, the latencies and matrix rows, the row flags.
	nvecs := 2 * k
	if quad {
		nvecs += 6*k + m
	}
	vecs := make([]vec4, nvecs)
	mat.delta = carve(&vecs, k)
	mat.nodeMin = carve(&vecs, k)
	if quad {
		mat.nodeMax = carve(&vecs, k)
		mat.nodeMean = carve(&vecs, k)
		mat.nodeCov = carve(&vecs, 4*k)
		mat.covQX = carve(&vecs, m)
	}
	floats := make([]float64, m+stages+stages*k+2*m*k)
	mat.cur = carve(&floats, m)
	mat.stageLat = carve(&floats, stages)
	mat.selfLat = carve(&floats, stages*k)
	for i := 0; i < m; i++ {
		mat.L[i] = carve(&floats, k)
	}
	for i := 0; i < m; i++ {
		mat.SelfGain[i] = carve(&floats, k)
	}
	flags := make([]bool, 2*m)
	mat.removed = carve(&flags, m)
	mat.onTouched = carve(&flags, m)

	window := 0
	for n := range in.NodeSamples {
		window = max(window, len(in.NodeSamples[n]))
		mat.recordNodeStats(n)
	}
	for s := range mat.scratches {
		mat.scratches[s] = newScratch(m, stages, window)
	}
	for i, c := range in.Components {
		mat.alloc[i] = c.Node
	}
	mat.nodeComps = groupIndices(m, k, func(i int) int { return in.Components[i].Node })
	mat.stageOf = groupIndices(m, stages, func(i int) int { return in.Components[i].Stage })
	// Every per-component latency and base-window moment is a pure
	// function of the frozen input (samples, models, allocation), written
	// to its own slot — shardable.
	in.Pool.Run(m, func(s, lo, hi int) {
		sc := mat.scratches[s]
		for i := lo; i < hi; i++ {
			mat.cur[i] = mat.latencyOn(i, mat.alloc[i], negv(in.Components[i].Demand), sc)
			mat.recordMoments(i, sc)
		}
	})
	mat.refreshStageLatencies()
	// Self terms, one region by node: each reads the frozen input and
	// delta and writes its node's slots.
	in.Pool.Run(k, func(s, lo, hi int) {
		sc := mat.scratches[s]
		for n := lo; n < hi; n++ {
			mat.refreshSelfTerms(n, sc)
		}
	})

	// Entry fill: each shard owns a contiguous row range and its private
	// scratch; entries read only barrier-frozen state (cur, stageLat,
	// selfLat, delta, the moments, the input) and write their own
	// L/SelfGain cells.
	in.Pool.Run(m, func(s, lo, hi int) {
		sc := mat.scratches[s]
		for i := lo; i < hi; i++ {
			mat.loadRow(i, sc)
			for j := 0; j < k; j++ {
				mat.computeEntry(i, j, sc)
			}
		}
	})
	return mat, nil
}

// carve returns the next n elements of *backing as a capacity-capped
// slice and advances *backing past them, so an append to the slice copies
// it out instead of growing into its neighbour.
func carve[T any](backing *[]T, n int) []T {
	s := (*backing)[:n:n]
	*backing = (*backing)[n:]
	return s
}

// groupIndices returns, per group, the indices i in [0, n) with
// groupOf(i) == group in ascending order. The lists are capacity-capped
// windows of one backing array, so an append to one list copies it out
// instead of growing into its neighbour.
func groupIndices(n, groups int, groupOf func(int) int) [][]int {
	counts := make([]int, groups)
	for i := 0; i < n; i++ {
		counts[groupOf(i)]++
	}
	backing := make([]int, n)
	lists := make([][]int, groups)
	off := 0
	for g, c := range counts {
		lists[g] = backing[off : off : off+c]
		off += c
	}
	for i := 0; i < n; i++ {
		g := groupOf(i)
		lists[g] = append(lists[g], i)
	}
	return lists
}

// --- small signed-vector helpers (cluster.Vector clamps on Sub, which is
// right for node accounting but wrong for the matrix's signed deltas) ---

type vec4 = [4]float64

func negv(v cluster.Vector) vec4 {
	return vec4{-v[0], -v[1], -v[2], -v[3]}
}

func addv(a vec4, v cluster.Vector, sign float64) vec4 {
	for i := 0; i < 4; i++ {
		a[i] += sign * v[i]
	}
	return a
}

// latencyOn predicts component i's expected latency (Eq. 2) if its
// background were node `node`'s sample window shifted by the virtual delta
// plus `adj`: the window path. Each shifted sample is clamped at zero
// before entering the regression, mirroring that real contention metrics
// are non-negative (predictWindow), the predictions fold into Eq. 2's
// mean and variance in sample order, and an empty window takes the
// model's fallback mean with zero variance.
func (mat *Matrix) latencyOn(i, node int, adj vec4, sc *scratch) float64 {
	model := mat.in.Models[mat.in.Components[i].Stage]
	samples := mat.in.NodeSamples[node]
	meanX, varX := model.FallbackMean, 0.0
	if len(samples) > 0 {
		xs := sc.window[:len(samples)]
		model.predictWindow(samples, mat.delta[node], adj, xs)
		var w stats.Welford
		w.AddAll(xs)
		meanX, varX = w.Mean(), w.Variance()
	}
	return ExpectedLatency(mat.in.Queue, meanX, varX, mat.in.Lambda, mat.in.Params)
}

// stageForm is a stage's Eq. 1 as a shift acts on it. With v added to
// every coordinate of a window, each unclamped prediction moves by
// A + Σ_r B_r·x_r, where x_r is the sample's coordinate before the shift,
// A = Σ_r v_r·(a1_r + a2_r·v_r), B_r = 2·a2_r·v_r, and a1_r and a2_r are
// w_r·c1_r/Σw and w_r·c2_r/Σw. degree is 2 when some weighted regression
// has a non-zero quadratic coefficient, 1 otherwise, and 0 when the model
// has no weighted regression or one of degree 3 or more: that stage's row
// terms keep the window path.
type stageForm struct {
	degree   int
	weighted [cluster.NumResources]bool
	a1, a2   vec4
}

func newStageForm(model *ServiceTimeModel) stageForm {
	var f stageForm
	if model == nil {
		return f
	}
	var den float64
	degree := 1
	for r := 0; r < cluster.NumResources; r++ {
		reg, w := model.Regs[r], model.Weights[r]
		if reg == nil || w == 0 {
			continue
		}
		den += w
		f.weighted[r] = true
		switch c := reg.Coef; len(c) {
		case 0, 1:
		case 2:
			f.a1[r] = w * c[1]
		case 3:
			f.a1[r], f.a2[r] = w*c[1], w*c[2]
			if c[2] != 0 {
				degree = 2
			}
		default:
			return stageForm{}
		}
	}
	if den == 0 {
		return stageForm{}
	}
	for r := range f.a1 {
		f.a1[r] /= den
		f.a2[r] /= den
	}
	f.degree = degree
	return f
}

// baseMoments are the mean, population variance and minimum, over h's
// node window, of h's unclamped, unfloored Eq. 1 prediction q at U − U_h
// under the current virtual delta (predictWindowUnfloored at lo = −Inf).
type baseMoments struct {
	mean, variance, minQ float64
}

// recordNodeStats stores node n's window statistics: its smallest sample
// per resource and, when some stage is degree 2, its largest, their means
// and covariances. They are statistics of the raw samples, so no virtual
// move changes them.
func (mat *Matrix) recordNodeStats(n int) {
	samples := mat.in.NodeSamples[n]
	inf := math.Inf(1)
	lo, hi := vec4{inf, inf, inf, inf}, vec4{-inf, -inf, -inf, -inf}
	var mu vec4
	for _, s := range samples {
		for r := range lo {
			lo[r], hi[r] = min(lo[r], s[r]), max(hi[r], s[r])
			mu[r] += s[r]
		}
	}
	mat.nodeMin[n] = lo
	if mat.nodeMean == nil || len(samples) == 0 {
		return
	}
	size := float64(len(samples))
	for r := range mu {
		mu[r] /= size
	}
	cov := mat.nodeCov[4*n : 4*n+4]
	for _, s := range samples {
		for r := range cov {
			d := s[r] - mu[r]
			for c := range cov[r] {
				cov[r][c] += d * (s[c] - mu[c])
			}
		}
	}
	for r := range cov {
		for c := range cov[r] {
			cov[r][c] /= size
		}
	}
	mat.nodeMax[n], mat.nodeMean[n] = hi, mu
}

// recordMoments stores component h's base-window moments, and for a
// degree-2 stage cov(q, x_r), under the current allocation and delta. A
// stage on the window path, or an empty window, records nothing: no
// closed form reads it.
func (mat *Matrix) recordMoments(h int, sc *scratch) {
	c := mat.in.Components[h]
	f := &mat.forms[c.Stage]
	n := mat.alloc[h]
	samples := mat.in.NodeSamples[n]
	if f.degree == 0 || len(samples) == 0 {
		return
	}
	q := sc.window[:len(samples)]
	mat.in.Models[c.Stage].predictWindowUnfloored(samples, mat.delta[n], negv(c.Demand), math.Inf(-1), q)
	sum, minQ := 0.0, math.Inf(1)
	for _, x := range q {
		sum += x
		minQ = min(minQ, x)
	}
	size := float64(len(q))
	mean := sum / size
	var ss float64
	for _, x := range q {
		ss += (x - mean) * (x - mean)
	}
	mat.moments[h] = baseMoments{mean: mean, variance: ss / size, minQ: minQ}
	if f.degree == 2 {
		mu := &mat.nodeMean[n]
		var cq vec4
		for t, x := range q {
			for r := range cq {
				cq[r] += (x - mean) * (samples[t][r] - mu[r])
			}
		}
		for r := range cq {
			cq[r] /= size
		}
		mat.covQX[h] = cq
	}
}

// termPath says how a row term is evaluated: in closed form, or through
// the window because the stage or window has no closed form (windowPath)
// or a certificate refused it.
type termPath int

const (
	windowPath   termPath = iota // empty window, degree ≥ 3 or no weighted regression
	closedForm                   // both certificates hold
	clampRefused                 // (a): some shifted coordinate would clamp at zero
	floorRefused                 // (b): the shifted prediction may reach the 1e-9 floor
)

// rowShift returns the sign σ and the window adjustment of row i's term
// for component h on node n (Table III): U' = U − U_ci on ci's own node
// (σ = −1), U' = U + U_ci on any other (σ = +1), each less U_h.
func (mat *Matrix) rowShift(i, h, n int) (float64, vec4) {
	sign := 1.0
	if n == mat.alloc[i] {
		sign = -1
	}
	comps := mat.in.Components
	return sign, addv(negv(comps[h].Demand), comps[i].Demand, sign)
}

// closedFormTerm evaluates row i's term for component h on node n from h's
// base-window moments. Eq. 1 is a weighted average of per-resource
// polynomials, so shifting every sample by v = σ·U_ci moves each
// unclamped prediction by A + Σ_r B_r·x_r (stageForm): the window's mean
// by A + Σ_r B_r·x̄_r and its variance by 2·Σ_r B_r·cov(q, x_r) +
// Σ_rs B_r·B_s·cov(x_r, x_s), with B = 0 at degree 1. That is the window
// path's mean and variance in real arithmetic when neither of its
// non-linear steps fires, which two certificates establish:
//
//	(a) every weighted resource's smallest shifted coordinate, computed
//	    as the window path computes it, is ≥ 0, so no clamp fires;
//	(b) a lower bound of every shifted prediction, min q + A +
//	    Σ_r B_r·(x_r's minimum, or its maximum where B_r < 0), is ≥ 1e-9,
//	    so no floor fires.
//
// It returns the term and closedForm, or the path the term must take
// instead. Float rounding differs from the window path's, so a term may
// differ from it by a few ulps.
func (mat *Matrix) closedFormTerm(i, h, n int, sign float64, adj vec4) (float64, termPath) {
	comps := mat.in.Components
	f := &mat.forms[comps[h].Stage]
	if f.degree == 0 || len(mat.in.NodeSamples[n]) == 0 {
		return 0, windowPath
	}
	lo, d := &mat.nodeMin[n], &mat.delta[n]
	var v vec4
	for r := range v {
		if f.weighted[r] && !((lo[r]+d[r])+adj[r] >= 0) {
			return 0, clampRefused
		}
		v[r] = sign * comps[i].Demand[r]
	}
	shift := 0.0
	for r := range v {
		shift += v[r] * (f.a1[r] + f.a2[r]*v[r])
	}
	mo := &mat.moments[h]
	mean, variance, low := mo.mean+shift, mo.variance, mo.minQ+shift
	if f.degree == 2 {
		var b vec4
		for r := range b {
			b[r] = 2 * f.a2[r] * v[r]
		}
		cq, mu, hi := &mat.covQX[h], &mat.nodeMean[n], &mat.nodeMax[n]
		cov := mat.nodeCov[4*n : 4*n+4]
		uh := &comps[h].Demand
		for r := range b {
			if b[r] == 0 {
				continue
			}
			// x_r's window mean and extreme under U − U_h: the node's
			// sample statistics moved by the delta less h's demand.
			mean += b[r] * ((mu[r] + d[r]) - uh[r])
			extreme := lo[r]
			if b[r] < 0 {
				extreme = hi[r]
			}
			low += b[r] * ((extreme + d[r]) - uh[r])
			variance += 2 * b[r] * cq[r]
			for c := range b {
				variance += b[r] * b[c] * cov[r][c]
			}
		}
	}
	if !(low >= 1e-9 && mean < math.Inf(1) && variance < math.Inf(1)) {
		return 0, floorRefused
	}
	return ExpectedLatency(mat.in.Queue, mean, max(variance, 0), mat.in.Lambda, mat.in.Params), closedForm
}

// refreshStageLatencies recomputes Eq. 3 per stage and Eq. 4 overall from
// the cached per-component latencies, re-sorting each stage's members by
// cur descending so a stage's maximum is its first member's latency.
// Latencies are never NaN (ExpectedLatency guards against it), so the
// order is total and the maximum is exactly the scan's.
func (mat *Matrix) refreshStageLatencies() {
	for s, members := range mat.stageOf {
		slices.SortStableFunc(members, func(a, b int) int {
			return cmp.Compare(mat.cur[b], mat.cur[a])
		})
		max := 0.0
		if len(members) > 0 && mat.cur[members[0]] > max {
			max = mat.cur[members[0]]
		}
		mat.stageLat[s] = max
	}
	mat.overall = OverallLatency(mat.stageLat)
}

// refreshSelfTerms recomputes node n's self terms under the current delta.
// A stage with no members is skipped: its model may be nil.
func (mat *Matrix) refreshSelfTerms(n int, sc *scratch) {
	k := mat.in.NumNodes
	for s, members := range mat.stageOf {
		if len(members) > 0 {
			mat.selfLat[s*k+n] = mat.latencyOn(members[0], n, vec4{}, sc)
		}
	}
}

// loadRow evaluates every term of row i into sc.term: the origin terms of
// the other components on ci's node and the destination terms of every
// component on every other node. Fills load each row before computing its
// entries, so no term outlives the region whose frozen delta it was
// computed from.
func (mat *Matrix) loadRow(i int, sc *scratch) {
	for n := range mat.nodeComps {
		mat.loadTerms(i, n, sc)
	}
}

// loadColumns evaluates the terms row i's entries in columns a and j read:
// its origin terms and the destination terms of nodes a and j, neither of
// which hosts ci.
func (mat *Matrix) loadColumns(i, a, j int, sc *scratch) {
	for _, n := range [3]int{mat.alloc[i], a, j} {
		mat.loadTerms(i, n, sc)
	}
}

// loadTerms evaluates row i's term for every component h ≠ i on node n,
// in closed form where closedFormTerm admits it and through the window
// otherwise.
func (mat *Matrix) loadTerms(i, n int, sc *scratch) {
	for _, h := range mat.nodeComps[n] {
		if h == i {
			continue
		}
		sign, adj := mat.rowShift(i, h, n)
		v, path := mat.closedFormTerm(i, h, n, sign, adj)
		if path != closedForm {
			v = mat.latencyOn(h, n, adj, sc)
		}
		sc.term[h] = v
	}
}

// computeEntry fills L[i][j] and SelfGain[i][j]: the hypothetical world
// where ci sits on nj, with the Table III contention updates applied to
// every component on ci's origin and destination nodes. sc is the calling
// shard's private scratch, holding the row's terms (loadRow or
// loadColumns); everything else it touches is read-only during a parallel
// fill except the (i, j) cells themselves.
func (mat *Matrix) computeEntry(i, j int, sc *scratch) {
	a := mat.alloc[i]
	if j == a {
		mat.L[i][j] = 0
		mat.SelfGain[i][j] = 0
		return
	}
	comps := mat.in.Components
	sc.epoch++

	// ci itself: U' = U_nj (Table III row 1).
	li := mat.selfLat[comps[i].Stage*mat.in.NumNodes+j]
	sc.override(i, comps[i].Stage, li)

	// Components remaining on the origin node (U' = U − U_ci), then those
	// already on the destination node (U' = U + U_ci): the row's terms.
	for _, n := range [2]int{a, j} {
		for _, h := range mat.nodeComps[n] {
			if h != i {
				sc.override(h, comps[h].Stage, sc.term[h])
			}
		}
	}

	// Eq. 3–4 with overrides; only stages containing changed components
	// can change. An affected stage's maximum is the largest of 0, its
	// overridden values and the cur of its first member not overridden —
	// the maximum of the same values a full member scan would see.
	overall := 0.0
	for s, members := range mat.stageOf {
		if sc.stageSet[s] != sc.epoch {
			overall += mat.stageLat[s]
			continue
		}
		max := sc.stageMax[s]
		for _, h := range members {
			if sc.overrideSet[h] != sc.epoch {
				if mat.cur[h] > max {
					max = mat.cur[h]
				}
				break
			}
		}
		overall += max
	}

	mat.L[i][j] = mat.overall - overall // Eq. 5
	mat.SelfGain[i][j] = mat.cur[i] - li
}

// NumComponents returns m.
func (mat *Matrix) NumComponents() int { return len(mat.in.Components) }

// NumNodes returns k.
func (mat *Matrix) NumNodes() int { return mat.in.NumNodes }

// Allocation returns the current virtual allocation (A[m]). Callers must
// not mutate it.
func (mat *Matrix) Allocation() []int { return mat.alloc }

// Removed reports whether component i has already migrated this round.
func (mat *Matrix) Removed(i int) bool { return mat.removed[i] }

// CurrentOverall returns the predicted overall service latency under the
// current virtual allocation.
func (mat *Matrix) CurrentOverall() float64 { return mat.overall }

// ComponentLatency returns the predicted latency of component i under the
// current virtual allocation.
func (mat *Matrix) ComponentLatency(i int) float64 { return mat.cur[i] }

// Best scans the matrix for the entry with the largest predicted overall
// reduction among non-removed components (Algorithm 1 line 6), breaking
// ties by the migrated component's own latency reduction (line 7). ok is
// false when no candidate rows remain.
func (mat *Matrix) Best() (comp, node int, gain float64, ok bool) {
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
			case v > gain-tie && mat.SelfGain[i][j] > mat.SelfGain[comp][node]:
				comp, node, gain = i, j, v
			}
		}
	}
	return comp, node, gain, comp >= 0
}

// Migrate commits ci → nj in the virtual allocation, removes ci from the
// candidate set, and applies Algorithm 2's incremental update: the origin
// and destination columns are recomputed for every remaining row, and the
// full rows of remaining components hosted on either node are recomputed.
func (mat *Matrix) Migrate(i, j int) {
	a := mat.alloc[i]
	if a == j {
		mat.removed[i] = true
		return
	}
	di := mat.in.Components[i].Demand

	// Commit the virtual move.
	mat.alloc[i] = j
	mat.nodeComps[a] = removeInt(mat.nodeComps[a], i)
	mat.nodeComps[j] = append(mat.nodeComps[j], i)
	mat.delta[a] = addv(mat.delta[a], di, -1)
	mat.delta[j] = addv(mat.delta[j], di, +1)
	mat.removed[i] = true

	// Refresh the cached current latencies and base-window moments of
	// everything on the two touched nodes (including the migrated
	// component), then Eq. 3–4 and the two nodes' self terms.
	seq := mat.scratches[0]
	for _, n := range [2]int{a, j} {
		for _, h := range mat.nodeComps[n] {
			mat.cur[h] = mat.latencyOn(h, n, negv(mat.in.Components[h].Demand), seq)
			mat.recordMoments(h, seq)
		}
	}
	mat.refreshStageLatencies()
	mat.refreshSelfTerms(a, seq)
	mat.refreshSelfTerms(j, seq)

	// Algorithm 2's incremental update, one barrier region over a
	// canonical row worklist: rows hosted on a touched node recompute all
	// their columns (line 7–10), every other live row just the origin and
	// destination columns (line 1–5). Each row belongs to exactly one
	// shard, entries read only the state committed above, and a full-row
	// recompute subsumes the two-column one, so the sharded fill lands the
	// same floats the sequential loops did.
	onTouched := mat.onTouched
	clear(onTouched)
	for _, n := range [2]int{a, j} {
		for _, h := range mat.nodeComps[n] {
			onTouched[h] = true
		}
	}
	mat.in.Pool.Run(len(mat.L), func(s, lo, hi int) {
		sc := mat.scratches[s]
		for h := lo; h < hi; h++ {
			if mat.removed[h] {
				continue
			}
			if onTouched[h] {
				mat.loadRow(h, sc)
				for v := 0; v < mat.in.NumNodes; v++ {
					mat.computeEntry(h, v, sc)
				}
				continue
			}
			mat.loadColumns(h, a, j, sc)
			mat.computeEntry(h, a, sc)
			mat.computeEntry(h, j, sc)
		}
	})
}

func removeInt(s []int, x int) []int {
	for i, v := range s {
		if v == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}
