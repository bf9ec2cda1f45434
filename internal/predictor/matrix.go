package predictor

import (
	"cmp"
	"fmt"
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
// terms once per (stage, node), origin and destination terms once per row,
// four windows at a time, and stage maxima read off members kept in
// descending latency order.
type Matrix struct {
	in MatrixInput

	alloc     []int        // virtual allocation A[m]
	delta     [][4]float64 // per-node signed demand adjustment from virtual moves
	nodeComps [][]int      // node -> component indices under alloc
	cur       []float64    // current predicted latency per component
	stageLat  []float64    // Eq. 3 per stage
	overall   float64      // Eq. 4
	stageOf   [][]int      // stage -> member component indices, cur descending
	removed   []bool       // rows frozen after their component migrated
	onTouched []bool       // Migrate's full-row marks, reused across calls

	// selfLat[s*k+n] is Table III row 1 for any stage-s component moved
	// onto node n: latencyOn reads the component only through its
	// stage's model, so one evaluation serves every member.
	selfLat []float64

	// L and SelfGain are exposed read-only to the scheduler. Their rows
	// are capacity-capped windows of two contiguous m·k arrays.
	L        [][]float64
	SelfGain [][]float64

	// scratches holds one entry-evaluation scratch per pool shard (slot 0
	// doubles as the sequential scratch); computeEntry runs concurrently
	// across rows during fills, so every shard needs private override
	// state.
	scratches []*scratch
}

// scratch is the per-shard workspace of the window kernel and
// computeEntry: the window predictions being folded, the current row's
// terms, and the latency overrides a hypothetical migration imposes on
// co-hosted components, folded into per-stage maxima.
type scratch struct {
	// lanes receives predictWindow's per-sample service times: one slot
	// per batch lane, each as long as the longest node window, in one
	// array.
	lanes []float64

	// batch holds the row terms queued for the next kernel call.
	batch batch

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
		lanes:       make([]float64, batchLanes*window),
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
	mat := &Matrix{
		in:        in,
		alloc:     make([]int, m),
		delta:     make([][4]float64, k),
		cur:       make([]float64, m),
		stageLat:  make([]float64, in.NumStages),
		removed:   make([]bool, m),
		onTouched: make([]bool, m),
		selfLat:   make([]float64, in.NumStages*k),
		L:         make([][]float64, m),
		SelfGain:  make([][]float64, m),
		scratches: make([]*scratch, in.Pool.Shards()),
	}
	window := 0
	for _, samples := range in.NodeSamples {
		window = max(window, len(samples))
	}
	for s := range mat.scratches {
		mat.scratches[s] = newScratch(m, in.NumStages, window)
	}
	for i, c := range in.Components {
		mat.alloc[i] = c.Node
	}
	mat.nodeComps = groupIndices(m, k, func(i int) int { return in.Components[i].Node })
	mat.stageOf = groupIndices(m, in.NumStages, func(i int) int { return in.Components[i].Stage })
	// Every per-component latency is a pure function of the frozen input
	// (samples, models, allocation), written to its own slot — shardable.
	in.Pool.Run(m, func(s, lo, hi int) {
		sc := mat.scratches[s]
		for i := lo; i < hi; i++ {
			mat.cur[i] = mat.latencyOn(i, mat.alloc[i], negv(in.Components[i].Demand), sc)
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

	lRows := make([]float64, m*k)
	gRows := make([]float64, m*k)
	for i := 0; i < m; i++ {
		mat.L[i] = lRows[i*k : (i+1)*k : (i+1)*k]
		mat.SelfGain[i] = gRows[i*k : (i+1)*k : (i+1)*k]
	}
	// Entry fill: each shard owns a contiguous row range and its private
	// scratch; entries read only barrier-frozen state (cur, stageLat,
	// selfLat, delta, the input) and write their own L/SelfGain cells.
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

// batchLanes is how many window predictions the kernel evaluates together.
const batchLanes = 4

// batch is up to batchLanes window predictions: lane l predicts component
// comp[l]'s latency with node[l]'s sample window shifted by the virtual
// delta plus adj[l] (signed), and predictBatch sets out[l].
type batch struct {
	n    int
	comp [batchLanes]int
	node [batchLanes]int
	adj  [batchLanes]vec4
	out  [batchLanes]float64
}

// predictBatch is the window kernel: it sets b.out[l] to Eq. 2's expected
// latency for each of b's lanes. Each shifted sample is clamped at zero
// before entering the regression, mirroring that real contention metrics
// are non-negative. A lane's window predicts into its slot of sc.lanes
// (predictWindow), folds into Eq. 2's mean and variance in sample order,
// and an empty window takes the model's fallback mean with zero variance.
// When the batch is full and its windows share one length n ≥ 1 the four
// folds run in lockstep (foldLockstep); otherwise each lane folds through
// stats.Welford. Either way each lane gets the same float bits.
func (mat *Matrix) predictBatch(b *batch, sc *scratch) {
	var xs [batchLanes][]float64
	var models [batchLanes]*ServiceTimeModel
	slot := len(sc.lanes) / batchLanes
	lockstep := b.n == batchLanes
	for l := 0; l < b.n; l++ {
		node := b.node[l]
		models[l] = mat.in.Models[mat.in.Components[b.comp[l]].Stage]
		samples := mat.in.NodeSamples[node]
		xs[l] = sc.lanes[l*slot : l*slot+len(samples)]
		models[l].predictWindow(samples, mat.delta[node], b.adj[l], xs[l])
		lockstep = lockstep && len(samples) > 0 && len(samples) == len(xs[0])
	}
	var mean, variance [batchLanes]float64
	if lockstep {
		mean, variance = foldLockstep(&xs)
	} else {
		for l := 0; l < b.n; l++ {
			var w stats.Welford
			w.AddAll(xs[l])
			mean[l], variance[l] = w.Mean(), w.Variance()
		}
	}
	for l := 0; l < b.n; l++ {
		if len(xs[l]) == 0 {
			mean[l], variance[l] = models[l].FallbackMean, 0
		}
		b.out[l] = ExpectedLatency(mat.in.Queue, mean[l], variance[l], mat.in.Lambda, mat.in.Params)
	}
}

// foldLockstep returns the Welford mean and population variance of four
// windows of one length n ≥ 1, folding them interleaved: four independent
// chains of divisions instead of one. Each lane performs stats.Welford's
// operations in its order — delta = x − mean, mean += delta/t,
// m2 += delta·(x − mean), variance m2/n only for n ≥ 2 — so each result
// is Welford's float bit for bit.
func foldLockstep(xs *[batchLanes][]float64) (mean, variance [batchLanes]float64) {
	n := len(xs[0])
	x0, x1, x2, x3 := xs[0][:n], xs[1][:n], xs[2][:n], xs[3][:n]
	var m0, m1, m2, m3, s0, s1, s2, s3 float64
	for t := 0; t < n; t++ {
		c := float64(t + 1)
		d0, d1, d2, d3 := x0[t]-m0, x1[t]-m1, x2[t]-m2, x3[t]-m3
		m0 += d0 / c
		m1 += d1 / c
		m2 += d2 / c
		m3 += d3 / c
		s0 += d0 * (x0[t] - m0)
		s1 += d1 * (x1[t] - m1)
		s2 += d2 * (x2[t] - m2)
		s3 += d3 * (x3[t] - m3)
	}
	mean = [batchLanes]float64{m0, m1, m2, m3}
	if n >= 2 {
		c := float64(n)
		variance = [batchLanes]float64{s0 / c, s1 / c, s2 / c, s3 / c}
	}
	return mean, variance
}

// latencyOn predicts component i's expected latency if its background were
// node `node`'s sample window shifted by the virtual delta plus `adj`: the
// window kernel's one-lane case.
func (mat *Matrix) latencyOn(i, node int, adj vec4, sc *scratch) float64 {
	b := batch{n: 1}
	b.comp[0], b.node[0], b.adj[0] = i, node, adj
	mat.predictBatch(&b, sc)
	return b.out[0]
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
		mat.queueTerms(i, n, sc)
	}
	mat.flushTerms(sc)
}

// loadColumns evaluates the terms row i's entries in columns a and j read:
// its origin terms and the destination terms of nodes a and j, neither of
// which hosts ci.
func (mat *Matrix) loadColumns(i, a, j int, sc *scratch) {
	for _, n := range [3]int{mat.alloc[i], a, j} {
		mat.queueTerms(i, n, sc)
	}
	mat.flushTerms(sc)
}

// queueTerms queues row i's term for every component h ≠ i on node n:
// U' = U − U_ci on ci's own node, U' = U + U_ci on any other. A full batch
// is evaluated at once.
func (mat *Matrix) queueTerms(i, n int, sc *scratch) {
	sign := 1.0
	if n == mat.alloc[i] {
		sign = -1
	}
	comps := mat.in.Components
	b := &sc.batch
	for _, h := range mat.nodeComps[n] {
		if h == i {
			continue
		}
		b.comp[b.n], b.node[b.n] = h, n
		b.adj[b.n] = addv(negv(comps[h].Demand), comps[i].Demand, sign)
		if b.n++; b.n == batchLanes {
			mat.flushTerms(sc)
		}
	}
}

// flushTerms evaluates the queued terms into sc.term.
func (mat *Matrix) flushTerms(sc *scratch) {
	b := &sc.batch
	mat.predictBatch(b, sc)
	for l := 0; l < b.n; l++ {
		sc.term[b.comp[l]] = b.out[l]
	}
	b.n = 0
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

	// Refresh the cached current latencies of everything on the two
	// touched nodes (including the migrated component), then Eq. 3–4 and
	// the two nodes' self terms.
	seq := mat.scratches[0]
	for _, n := range [2]int{a, j} {
		for _, h := range mat.nodeComps[n] {
			mat.cur[h] = mat.latencyOn(h, n, negv(mat.in.Components[h].Demand), seq)
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
