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
// from its current node to node nj (Eq. 5); SelfGain(i, j) is the reduction
// in ci's own latency, used for Algorithm 1's tie-break.
//
// The matrix tracks a virtual allocation: Migrate commits a migration
// within the scheduling round and incrementally updates the affected
// entries per Algorithm 2, without waiting for the physical migration.
//
// Each distinct window prediction is evaluated at most once per fill
// region (see docs/architecture.md, "Performance-matrix evaluation
// discipline"): self terms once per (stage, node), origin terms once per
// row and folded into per-stage maxima, destination terms only where their
// component's bound says they can raise a stage maximum — each row term in
// closed form from its component's base-window moments wherever two
// certificates show the closed form exact in reals (closedFormTerm),
// through the window otherwise — and stage maxima read off members kept in
// descending latency order. Rebuild reuses the matrix's arrays from one
// scheduling interval to the next.
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

	// The bound-first rule's inputs. shift[(2i+side)·stages + s] is the
	// Eq. 1 mean shift A of row i's terms for a stage-s component, side 0
	// for origin terms (σ = −1) and 1 for destination terms (σ = +1);
	// destShiftMax and destShiftMin are each stage's extremes over all
	// rows, nonNegDemand whether no demand is negative, margin the queue
	// model's riseMargin. bound[h] is an upper bound on every closed-form
	// destination term of h (+Inf where none is known) and admitAll[h]
	// reports that closedFormTerm admits h's destination term in every
	// row; both are refreshed wherever moments[h] is.
	shift        []float64
	destShiftMax []float64
	destShiftMin []float64
	nonNegDemand bool
	margin       float64
	bound        []float64
	admitAll     []bool

	// originMax[i·stages + s] is row i's origin fold: the largest of 0 and
	// its origin terms in stage s (foldOrigin). rowBound[i] is an upper
	// bound on row i's off-node L cells, NaN cells aside: exact after the
	// row is filled, raised by the two new cells of a two-column update.
	originMax []float64
	rowBound  []float64

	// L is exposed read-only to the scheduler. Its rows are
	// capacity-capped windows of one contiguous array.
	L [][]float64

	// scratches holds one entry-evaluation scratch per pool shard (slot 0
	// doubles as the sequential scratch); computeEntry runs concurrently
	// across rows during fills, so every shard needs private state.
	scratches []*scratch

	// The backing arrays the slices above are carved from, one per
	// element type, kept so Rebuild can carve them again.
	floats []float64
	vecs   []vec4
	flags  []bool
	ints   []int
	lists  [][]int
}

// scratch is the per-shard workspace of the window path and computeEntry,
// carved from one float array: one window of predictions and one set of
// per-stage maxima.
type scratch struct {
	// buf is the array the slices below are carved from.
	buf []float64

	// window receives predictWindow's per-sample service times; it is as
	// long as the longest node window.
	window []float64

	// colMax[s] is stage s's running maximum in the current entry
	// (entryFloor, then computeEntry's destination terms).
	colMax []float64
}

// resize carves sc for the given stage count and window length, reusing
// its array when it is large enough.
func (sc *scratch) resize(stages, window int) {
	sc.buf = grow(sc.buf, window+stages)
	buf := sc.buf
	sc.window = carve(&buf, window)
	sc.colMax = carve(&buf, stages)
}

// BuildMatrix constructs a new matrix for in (see Rebuild).
func BuildMatrix(in MatrixInput) (*Matrix, error) {
	mat := new(Matrix)
	if err := mat.Rebuild(in); err != nil {
		return nil, err
	}
	return mat, nil
}

// Rebuild constructs the matrix for in: current latencies for every
// component (Eq. 1→2), stage and overall latencies (Eq. 3–4), the
// per-(stage, node) self terms, then every entry L[i][j] via the Table III
// contention updates. It validates in before it touches the matrix, then
// builds into the matrix's own arrays, allocating only where m, k, the
// stage count, the longest window or the shard count outgrow them, so a
// caller that keeps one matrix across scheduling intervals stops
// allocating once the shapes settle. Every cell, latency and decision is
// bit-identical to a fresh BuildMatrix's. The matrix reads in's slices
// until the next Rebuild.
func (mat *Matrix) Rebuild(in MatrixInput) error {
	if err := in.validate(); err != nil {
		return err
	}
	m := len(in.Components)
	k := in.NumNodes
	stages := in.NumStages
	mat.in = in
	mat.forms = grow(mat.forms, stages)
	quad := false
	for s := range mat.forms {
		mat.forms[s] = newStageForm(in.Models[s])
		quad = quad || mat.forms[s].degree == 2
	}
	mat.moments = grow(mat.moments, m)
	mat.carveArrays(m, k, stages, quad)

	window := 0
	for n := range in.NodeSamples {
		window = max(window, len(in.NodeSamples[n]))
		mat.recordNodeStats(n)
	}
	mat.scratches = grow(mat.scratches, in.Pool.Shards())
	for s, sc := range mat.scratches {
		if sc == nil {
			sc = new(scratch)
			mat.scratches[s] = sc
		}
		sc.resize(stages, window)
	}
	mat.recordShifts()
	mat.margin = in.Params.riseMargin()
	for i, c := range in.Components {
		mat.alloc[i] = c.Node
	}
	// Every per-component latency, base-window moment and destination
	// bound is a pure function of the frozen input (samples, models,
	// allocation) and the round's shifts, written to its own slot —
	// shardable.
	in.Pool.Run(m, func(s, lo, hi int) {
		sc := mat.scratches[s]
		for i := lo; i < hi; i++ {
			mat.cur[i] = mat.latencyOn(i, mat.alloc[i], negv(mat.in.Components[i].Demand), sc)
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
	// selfLat, delta, the moments and bounds, the input) and write their
	// own row's cells, origin fold and bound.
	in.Pool.Run(m, func(s, lo, hi int) {
		sc := mat.scratches[s]
		for i := lo; i < hi; i++ {
			mat.fillRow(i, sc)
		}
	})
	return nil
}

// carveArrays carves the matrix's slices from its backing arrays, one per
// element type, growing an array only where the shapes outgrow it, and
// groups the components by node and by stage. Of the carved slices only
// delta, nodeCov and removed accumulate, so only they are cleared; every
// other slot is written before it is read.
func (mat *Matrix) carveArrays(m, k, stages int, quad bool) {
	// The per-node and per-component vectors.
	nvecs := 2 * k
	if quad {
		nvecs += 6*k + m
	}
	mat.vecs = grow(mat.vecs, nvecs)
	vecs := mat.vecs
	mat.delta = carve(&vecs, k)
	clear(mat.delta)
	mat.nodeMin = carve(&vecs, k)
	mat.nodeMax, mat.nodeMean, mat.nodeCov, mat.covQX = nil, nil, nil, nil
	if quad {
		mat.nodeMax = carve(&vecs, k)
		mat.nodeMean = carve(&vecs, k)
		mat.nodeCov = carve(&vecs, 4*k)
		clear(mat.nodeCov)
		mat.covQX = carve(&vecs, m)
	}

	// The latencies, shifts, bounds, origin folds and matrix rows.
	mat.floats = grow(mat.floats, 3*m+3*stages+stages*k+3*m*stages+m*k)
	floats := mat.floats
	mat.cur = carve(&floats, m)
	mat.stageLat = carve(&floats, stages)
	mat.selfLat = carve(&floats, stages*k)
	mat.bound = carve(&floats, m)
	mat.rowBound = carve(&floats, m)
	mat.shift = carve(&floats, 2*m*stages)
	mat.originMax = carve(&floats, m*stages)
	mat.destShiftMax = carve(&floats, stages)
	mat.destShiftMin = carve(&floats, stages)
	mat.L = grow(mat.L, m)
	for i := range mat.L {
		mat.L[i] = carve(&floats, k)
	}

	// The row flags.
	mat.flags = grow(mat.flags, 3*m)
	flags := mat.flags
	mat.removed = carve(&flags, m)
	clear(mat.removed)
	mat.onTouched = carve(&flags, m)
	mat.admitAll = carve(&flags, m)

	// The allocation and the node and stage membership lists.
	mat.ints = grow(mat.ints, 3*m+max(k, stages))
	ints := mat.ints
	mat.alloc = carve(&ints, m)
	byNode, byStage := carve(&ints, m), carve(&ints, m)
	mat.lists = grow(mat.lists, k+stages)
	mat.nodeComps, mat.stageOf = mat.lists[:k:k], mat.lists[k:]
	comps := mat.in.Components
	groupIndices(mat.nodeComps, byNode, ints, func(i int) int { return comps[i].Node })
	groupIndices(mat.stageOf, byStage, ints, func(i int) int { return comps[i].Stage })
}

// grow returns s with length n, reusing its array when its capacity
// allows; a reused array keeps its old contents.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// carve returns the next n elements of *backing as a capacity-capped
// slice and advances *backing past them, so an append to the slice copies
// it out instead of growing into its neighbour.
func carve[T any](backing *[]T, n int) []T {
	s := (*backing)[:n:n]
	*backing = (*backing)[n:]
	return s
}

// groupIndices sets lists[g], for every group g, to the indices i in
// [0, len(backing)) with groupOf(i) == g in ascending order. The lists are
// capacity-capped windows of backing, so an append to one list copies it
// out instead of growing into its neighbour; counts, as long as the
// longest of lists, is scratch.
func groupIndices(lists [][]int, backing, counts []int, groupOf func(int) int) {
	counts = counts[:len(lists)]
	clear(counts)
	for i := range backing {
		counts[groupOf(i)]++
	}
	off := 0
	for g, c := range counts {
		lists[g] = backing[off : off : off+c]
		off += c
	}
	for i := range backing {
		g := groupOf(i)
		lists[g] = append(lists[g], i)
	}
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
// degree-2 stage cov(q, x_r), under the current allocation and delta, then
// its destination bound (recordBound). A stage on the window path, or an
// empty window, records no moments, since no closed form reads them, and
// no bound.
func (mat *Matrix) recordMoments(h int, sc *scratch) {
	c := mat.in.Components[h]
	f := &mat.forms[c.Stage]
	n := mat.alloc[h]
	samples := mat.in.NodeSamples[n]
	mat.bound[h], mat.admitAll[h] = math.Inf(1), false
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
	if f.degree == 1 {
		mat.recordBound(h)
	}
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

// recordShifts stores every row's mean shift per (side, stage) with
// closedFormTerm's float operations, A = Σ_r v_r·(a1_r + a2_r·v_r) at
// v = σ·U_ci summed in ascending resource order, each stage's largest and
// smallest destination shift, and whether every demand is non-negative.
// Demands and models do not change within a round.
func (mat *Matrix) recordShifts() {
	stages := len(mat.forms)
	mat.nonNegDemand = true
	for s := range mat.forms {
		mat.destShiftMax[s], mat.destShiftMin[s] = math.Inf(-1), math.Inf(1)
	}
	for i, c := range mat.in.Components {
		for _, u := range c.Demand {
			mat.nonNegDemand = mat.nonNegDemand && u >= 0
		}
		for side, sign := range [2]float64{-1, 1} {
			row := mat.shift[(2*i+side)*stages : (2*i+side+1)*stages]
			for s := range mat.forms {
				f := &mat.forms[s]
				shift := 0.0
				for r := range f.a1 {
					v := sign * c.Demand[r]
					shift += v * (f.a1[r] + f.a2[r]*v)
				}
				row[s] = shift
				if side == 1 && f.degree != 0 {
					mat.destShiftMax[s] = max(mat.destShiftMax[s], shift)
					mat.destShiftMin[s] = min(mat.destShiftMin[s], shift)
				}
			}
		}
	}
}

// recordBound stores, for a degree-1 component h with fresh base-window
// moments, an upper bound on all its closed-form destination terms and
// whether closedFormTerm admits that term in every row (see
// docs/architecture.md, "Bound-first destination terms"). A destination term
// of row i is Eq. 2 at mean mo.mean + shift_i and variance mo.variance;
// float addition is monotone, so its mean is at most mo.mean plus the
// stage's largest destination shift, and Eq. 2 rises with the mean to
// within riseMargin. The bound stays +Inf unless riseMargin's premises
// hold: an admitted term's mean is ≥ its certificate-(b) low bound ≥ 1e-9
// when mo.mean ≥ mo.minQ, λ passes the guard, and the bound's own
// evaluation gives at most 1e300 without the fallback.
//
// The all-rows flag restates both certificates for every row at once:
// with no demand negative, a destination adjustment (−U_h) + U_ci is at
// least −U_h in floats, so a base coordinate that clears certificate (a)
// clears it for every ci; and the smallest destination shift bounds every
// row's certificate-(b) low bound from below.
func (mat *Matrix) recordBound(h int) {
	c := mat.in.Components[h]
	mo := &mat.moments[h]
	maxShift := mat.destShiftMax[c.Stage]
	v := max(mo.variance, 0)
	if !(mo.mean >= mo.minQ && mat.in.Lambda*(1+v*1.01e18) <= 1e300 && mat.margin < math.Inf(1)) {
		return
	}
	l, fallback := expectedLatency(mat.in.Queue, mo.mean+maxShift, v, mat.in.Lambda, mat.in.Params)
	if fallback || !(l <= 1e300) {
		return
	}
	mat.bound[h] = l * (1 + mat.margin)
	admit := mat.nonNegDemand && mo.minQ+mat.destShiftMin[c.Stage] >= 1e-9 &&
		mo.mean+maxShift < math.Inf(1) && mo.variance < math.Inf(1)
	f := &mat.forms[c.Stage]
	n := mat.alloc[h]
	lo, d := &mat.nodeMin[n], &mat.delta[n]
	for r := range lo {
		admit = admit && (!f.weighted[r] || (lo[r]+d[r])-c.Demand[r] >= 0)
	}
	mat.admitAll[h] = admit
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
	mean, variance, path := mat.closedFormMoments(i, h, n, sign, adj)
	if path != closedForm {
		return 0, path
	}
	return ExpectedLatency(mat.in.Queue, mean, max(variance, 0), mat.in.Lambda, mat.in.Params), closedForm
}

// closedFormMoments is closedFormTerm up to Eq. 2: the certificates, then
// the term's window mean and variance in closed form, A read from the
// round's shifts.
func (mat *Matrix) closedFormMoments(i, h, n int, sign float64, adj vec4) (mean, variance float64, path termPath) {
	comps := mat.in.Components
	stage := comps[h].Stage
	f := &mat.forms[stage]
	if f.degree == 0 || len(mat.in.NodeSamples[n]) == 0 {
		return 0, 0, windowPath
	}
	lo, d := &mat.nodeMin[n], &mat.delta[n]
	for r := range lo {
		if f.weighted[r] && !((lo[r]+d[r])+adj[r] >= 0) {
			return 0, 0, clampRefused
		}
	}
	side := 0
	if sign > 0 {
		side = 1
	}
	shift := mat.shift[(2*i+side)*len(mat.forms)+stage]
	mo := &mat.moments[h]
	mean, variance, low := mo.mean+shift, mo.variance, mo.minQ+shift
	if f.degree == 2 {
		var b vec4
		for r := range b {
			b[r] = 2 * f.a2[r] * (sign * comps[i].Demand[r])
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
		return 0, 0, floorRefused
	}
	return mean, variance, closedForm
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

// rowTerm evaluates row i's term for component h on node n (Table III):
// h's latency once ci leaves n (h on ci's node: U' = U − U_ci) or joins it
// (U' = U + U_ci), in closed form where closedFormTerm admits it and
// through the window otherwise.
func (mat *Matrix) rowTerm(i, h, n int, sc *scratch) float64 {
	sign, adj := mat.rowShift(i, h, n)
	v, path := mat.closedFormTerm(i, h, n, sign, adj)
	if path != closedForm {
		v = mat.latencyOn(h, n, adj, sc)
	}
	return v
}

// fillRow recomputes row i whole: its origin fold, every entry, and its
// bound.
func (mat *Matrix) fillRow(i int, sc *scratch) {
	mat.foldOrigin(i, sc)
	for j := range mat.L[i] {
		mat.computeEntry(i, j, sc)
	}
	mat.resetBound(i)
}

// resetBound sets row i's bound to the largest of its off-node cells,
// NaN cells aside (−Inf when there is none): exact.
func (mat *Matrix) resetBound(i int) {
	a := mat.alloc[i]
	bound := math.Inf(-1)
	for j, v := range mat.L[i] {
		if j != a && v > bound {
			bound = v
		}
	}
	mat.rowBound[i] = bound
}

// originRow returns row i's origin fold, one slot per stage.
func (mat *Matrix) originRow(i int) []float64 {
	stages := len(mat.forms)
	return mat.originMax[i*stages : (i+1)*stages]
}

// foldOrigin evaluates row i's origin terms, those of the other components
// on ci's node, and folds them into the row's origin fold (originRow): per
// stage, the largest of 0 and the row's origin terms. They are the same in
// every column, so a row is folded once before its entries are computed.
// They read only ci's node's members, delta and moments, so a fold stays
// valid until a virtual move touches that node.
func (mat *Matrix) foldOrigin(i int, sc *scratch) {
	fold := mat.originRow(i)
	clear(fold)
	a := mat.alloc[i]
	for _, h := range mat.nodeComps[a] {
		if h == i {
			continue
		}
		s := mat.in.Components[h].Stage
		if v := mat.rowTerm(i, h, a, sc); v > fold[s] {
			fold[s] = v
		}
	}
}

// entryFloor sets sc.colMax, for entry (i, j) with j ≠ ci's node, to each
// stage's maximum over everything but the destination terms: 0, the row's
// origin fold, ci's self term on nj, and the cur of the stage's first
// member on neither node — the largest latency among the members the
// entry leaves unchanged, since members are kept in descending cur order.
func (mat *Matrix) entryFloor(i, j int, sc *scratch) {
	a := mat.alloc[i]
	fold := mat.originRow(i)
	for s, members := range mat.stageOf {
		v := fold[s]
		for _, h := range members {
			if n := mat.alloc[h]; n != a && n != j {
				if mat.cur[h] > v {
					v = mat.cur[h]
				}
				break
			}
		}
		sc.colMax[s] = v
	}
	stage := mat.in.Components[i].Stage
	if li := mat.selfLat[stage*mat.in.NumNodes+j]; li > sc.colMax[stage] {
		sc.colMax[stage] = li
	}
}

// destCase classifies a destination term against its stage's running
// maximum: computeEntry's predicate for evaluating it. The cases from
// skipAllRows on skip the term.
type destCase int

const (
	overBound    destCase = iota // the bound exceeds the running maximum (+Inf: no bound): evaluate
	refusedUnder                 // within the bound, but a certificate refuses the closed form: evaluate
	skipAllRows                  // within the bound, admitted in every row: skip
	skipPair                     // within the bound, admitted in this row: skip
)

// destCheck classifies row i's destination term for h on node j against
// runMax, the running maximum of h's stage. A term closedFormTerm admits
// is at most bound[h], so when the bound is within runMax the term cannot
// raise the maximum and skipping it leaves every float of the entry as it
// was; a refused term takes the window path, which the bound does not
// cover.
func (mat *Matrix) destCheck(i, h, j int, runMax float64) destCase {
	if mat.bound[h] > runMax {
		return overBound
	}
	if mat.admitAll[h] {
		return skipAllRows
	}
	sign, adj := mat.rowShift(i, h, j)
	if _, _, path := mat.closedFormMoments(i, h, j, sign, adj); path == closedForm {
		return skipPair
	}
	return refusedUnder
}

// computeEntry fills L[i][j]: the hypothetical world where ci sits on nj,
// with the Table III contention updates applied to every component on
// ci's origin and destination nodes. It reads the row's origin fold; sc
// is the calling shard's private scratch, and everything else it touches
// is read-only during a parallel fill except the (i, j) cell itself.
//
// Eq. 3–4 with the updates: each stage's maximum is the largest of its
// floor (entryFloor) and its destination terms, and a destination term is
// evaluated only where destCheck says it can raise that maximum.
func (mat *Matrix) computeEntry(i, j int, sc *scratch) {
	if j == mat.alloc[i] {
		mat.L[i][j] = 0
		return
	}
	mat.entryFloor(i, j, sc)
	for _, h := range mat.nodeComps[j] {
		s := mat.in.Components[h].Stage
		if mat.destCheck(i, h, j, sc.colMax[s]) >= skipAllRows {
			continue
		}
		if v := mat.rowTerm(i, h, j, sc); v > sc.colMax[s] {
			sc.colMax[s] = v
		}
	}
	overall := 0.0
	for _, v := range sc.colMax {
		overall += v
	}
	mat.L[i][j] = mat.overall - overall // Eq. 5
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

// SelfGain returns the predicted reduction in component i's own latency
// if it migrates to node j (Algorithm 1's tie-break): its current
// latency less its self term on nj, 0 on its own node. For a row that has
// not migrated it is exact at any point of the round, because Migrate
// refreshes cur and the self terms wherever a move changes them; a
// migrated row's value is not meaningful.
func (mat *Matrix) SelfGain(i, j int) float64 {
	if j == mat.alloc[i] {
		return 0
	}
	return mat.cur[i] - mat.selfLat[mat.in.Components[i].Stage*mat.in.NumNodes+j]
}

// Best scans the matrix for the entry with the largest predicted overall
// reduction among non-removed components (Algorithm 1 line 6), breaking
// ties by the migrated component's own latency reduction (line 7). ok is
// false when no candidate rows remain.
//
// Once it holds a candidate, it skips every row whose bound is within
// gain − tie: no cell of such a row is above gain + tie or gain − tie, so
// none passes either branch of the tie rule, and the scan returns what
// visiting every cell in order would.
func (mat *Matrix) Best() (comp, node int, gain float64, ok bool) {
	const tie = 1e-12
	comp, node = -1, -1
	for i := range mat.L {
		if mat.removed[i] || (comp >= 0 && mat.rowBound[i] <= gain-tie) {
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

	// Refresh the cached current latencies, base-window moments and
	// destination bounds of everything on the two touched nodes (including
	// the migrated component), then Eq. 3–4 and the two nodes' self terms.
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
				mat.fillRow(h, sc)
				continue
			}
			// h sits on neither touched node, so its origin fold stands,
			// and only its two recomputed cells can raise its bound.
			mat.computeEntry(h, a, sc)
			mat.computeEntry(h, j, sc)
			for _, v := range [2]float64{mat.L[h][a], mat.L[h][j]} {
				if v > mat.rowBound[h] {
					mat.rowBound[h] = v
				}
			}
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
