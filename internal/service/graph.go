package service

import "math"

// This file is the runtime half of the service-graph layer: the compiled
// GraphPlan a deployment executes, and the visit-based request flow that
// replaces the linear stage walk when a plan is configured. The pure-data
// authoring surface (graph.Spec) lives in internal/graph and compiles to
// these types, keeping the import direction service ← graph.
//
// Execution model: a request starts one visit per entry node. A visit is
// one call to a node — it fans a sub-request out to every component of the
// node's stage (the existing stage semantics, so dispatch policies,
// redundancy and reissue compose unchanged) and succeeds when all of them
// answer. A successful visit then follows the node's out-edges
// independently: each edge fires with its branching probability, sync
// edges add to the request's outstanding-call count, async edges are fire
// and forget (and everything downstream of them inherits async-ness). A
// visit fails by timing out or by a tripped breaker fast-failing it; a
// failed visit retries its edge with exponential backoff until the edge's
// retry budget is spent, after which the request itself fails (timed out
// or failed, by the kind of the last attempt) — unless the visit was
// async, in which case the failure is swallowed like a dropped
// notification. The request completes when its outstanding sync calls
// drain to zero.
//
// Affinity discipline in laned mode: every decision here — edge draws,
// breaker state, retry timers, outcome accounting — runs in root-class
// context, exactly like the linear path's bookkeeping, so graph runs are
// lane-count invariant for the same reason stage runs are. The only
// cross-class traffic a graph adds is timeout cancellation, which reuses
// the unconditional cancel-message relay the redundancy policies already
// use: the root never reads queue state it doesn't own.

// GraphPlan is the compiled, executable form of a service DAG. Plans are
// built by graph.Spec.Plan — construct them there, not by hand — and
// configured through Config.Graph; node i of the plan executes on stage i
// of the deployment's topology.
type GraphPlan struct {
	// Name identifies the graph (the spec's name) in errors.
	Name string
	// Nodes are the graph's nodes in topology-stage order.
	Nodes []GraphNode
	// Entries are indices of the nodes every request starts at (the
	// spec's in-degree-zero nodes).
	Entries []int
}

// GraphNode is one compiled DAG node: failure semantics plus out-edges for
// the stage it executes on.
type GraphNode struct {
	// Name is the node's (and stage's) name.
	Name string
	// Timeout is the visit deadline in seconds; 0 means no timeout. A
	// visit that misses it fails, cancels its still-queued executions and
	// counts against the node's breaker.
	Timeout float64
	// Breaker, when non-nil, fast-fails visits while the node's circuit
	// is open.
	Breaker *GraphBreaker
	// Storage, when non-nil, makes the node a storage backend: each
	// sub-request's nominal work is drawn per-operation (write, cache hit
	// or miss) instead of using the stage's base service time.
	Storage *GraphStorage
	// Calls are the node's out-edges, followed when a visit succeeds.
	Calls []GraphCall
}

// GraphCall is one compiled out-edge of a DAG node.
type GraphCall struct {
	// To is the callee's node index.
	To int
	// Prob is the branching probability in (0, 1]; 1 always calls.
	Prob float64
	// Async marks a fire-and-forget call: the request does not wait for
	// it, and failures below it never fail the request.
	Async bool
	// Retries is how many times a failed visit over this edge is retried
	// before the failure propagates.
	Retries int
	// Backoff is the delay in seconds before retry attempt 1; attempt k
	// waits Backoff·2^(k-1) (exponential backoff).
	Backoff float64
}

// GraphBreaker is a compiled per-node circuit breaker: trip after
// Failures consecutive visit failures, fast-fail while open, allow one
// half-open probe per Cooldown.
type GraphBreaker struct {
	// Failures is the consecutive-failure count that opens the circuit.
	Failures int
	// Cooldown is the seconds an open circuit waits before admitting a
	// half-open probe visit.
	Cooldown float64
}

// GraphStorage is a compiled storage backend profile. Each sub-request
// dispatched to the node draws its operation in root context: a write
// with probability WriteFraction, otherwise a read that hits the cache
// tier with probability HitRatio.
type GraphStorage struct {
	// HitRatio is the cache hit probability of a read in [0, 1].
	HitRatio float64
	// HitTime and MissTime are the nominal service times in seconds of a
	// cache read and of a read that falls through to the backing store.
	HitTime  float64
	MissTime float64
	// WriteFraction is the probability an operation is a write, in [0, 1).
	WriteFraction float64
	// WriteTime is the nominal service time in seconds of a write.
	WriteTime float64
}

// ExpectedServiceTime is the mean nominal service time of one storage
// operation under the profile's read/write and hit/miss mix — what the
// stage's base service time is set to, so profiling and reissue estimates
// see the true mean work.
func (st *GraphStorage) ExpectedServiceTime() float64 {
	read := st.HitRatio*st.HitTime + (1-st.HitRatio)*st.MissTime
	return st.WriteFraction*st.WriteTime + (1-st.WriteFraction)*read
}

// GraphStats are the failure-semantics counters a graph run accumulates,
// all maintained in root-class context.
type GraphStats struct {
	// Retries counts retry attempts issued after visit failures.
	Retries int
	// BreakerTrips counts closed→open transitions; BreakerFastFails
	// counts visits an open circuit rejected without dispatching.
	BreakerTrips     int
	BreakerFastFails int
	// CacheHits, CacheMisses and StorageWrites count storage-node
	// operations by kind.
	CacheHits     int
	CacheMisses   int
	StorageWrites int
	// AsyncCalls counts fire-and-forget edge activations; AsyncFailures
	// counts async visits whose retry budget ran out (swallowed, never
	// failing the request).
	AsyncCalls    int
	AsyncFailures int
}

// reqOutcome is a request's terminal disposition under graph execution.
type reqOutcome int

const (
	outcomePending reqOutcome = iota
	outcomeCompleted
	outcomeFailed
	outcomeTimedOut
)

// graphReq is the per-request graph bookkeeping, used only when the
// deployment runs a plan.
type graphReq struct {
	// pendingSync counts outstanding synchronous visits (entries plus
	// followed sync edges). The request completes when it drains to zero.
	pendingSync int
	// outcome latches the request's disposition; once terminal, surviving
	// branches are abandoned (they stop propagating on their next event).
	outcome reqOutcome
}

// graphVisit is one call to a DAG node: a fan-out to the node's stage
// components plus the failure bookkeeping around it.
type graphVisit struct {
	req  *Request
	node int
	// call is the edge that spawned the visit (nil for entry visits — the
	// virtual client edge, which has no retry budget).
	call    *GraphCall
	attempt int
	async   bool

	pending int // sub-requests outstanding
	done    bool
	dead    bool // timed out or fast-failed; late completions are ignored
	subs    []SubRequest
}

// A visit is the record behind its own timers: visitDeadline is the
// visit's timeout and visitRetry the backed-off retry of its edge, both
// root-class events.
type (
	visitDeadline graphVisit
	visitRetry    graphVisit
)

func (d *visitDeadline) Fire(now float64) {
	v := (*graphVisit)(d)
	v.req.svc.visitTimeout(v, now)
}

// Fire re-attempts the failed visit's edge, unless the request died while
// the retry backed off.
func (rt *visitRetry) Fire(now float64) {
	v := (*graphVisit)(rt)
	r := v.req
	if r.gr.outcome != outcomePending {
		return
	}
	r.svc.startVisit(r, v.node, v.call, v.attempt+1, v.async, now)
}

// breakerState is the root-owned runtime state of one node's circuit.
type breakerState struct {
	open        bool
	probing     bool
	consecFails int
	reopenAt    float64
}

// GraphPlanned reports whether the deployment executes a service DAG.
func (s *Service) GraphPlanned() bool { return s.graph != nil }

// Failed reports how many requests terminated with a non-timeout failure
// (breaker fast-fail or exhausted retries on a failed visit).
func (s *Service) Failed() int { return s.failed }

// TimedOut reports how many requests terminated because a visit's retry
// budget drained on timeouts.
func (s *Service) TimedOut() int { return s.timedOut }

// GraphStats returns the run's accumulated graph counters (zero value for
// non-graph deployments).
func (s *Service) GraphStats() GraphStats { return s.graphStats }

// graphStart launches a request onto the plan: one sync visit per entry
// node.
func (s *Service) graphStart(r *Request, now float64) {
	for _, n := range s.graph.Entries {
		r.gr.pendingSync++
		s.startVisit(r, n, nil, 0, false, now)
	}
}

// startVisit performs one call to a node: breaker admission, sub-request
// fan-out to the node's stage components through the active dispatch
// policy, and the timeout timer. Always runs in root-class context.
func (s *Service) startVisit(r *Request, node int, call *GraphCall, attempt int, async bool, now float64) {
	n := &s.graph.Nodes[node]
	v := &graphVisit{req: r, node: node, call: call, attempt: attempt, async: async}
	if n.Breaker != nil && !s.breakerAllow(node, now) {
		s.graphStats.BreakerFastFails++
		s.visitFailed(v, outcomeFailed, now)
		return
	}
	comps := s.stageComponents[node]
	v.pending = len(comps)
	v.subs = make([]SubRequest, len(comps))
	for i, c := range comps {
		sub := &v.subs[i]
		sub.Req, sub.Comp, sub.IssuedAt, sub.visit = r, c, now, v
		if n.Storage != nil {
			sub.baseOverride = s.drawStorageTime(n.Storage)
		}
		s.policy.Dispatch(s, sub, now)
	}
	if n.Timeout > 0 {
		s.scheduleData(rootClass, rootClass, now+n.Timeout, (*visitDeadline)(v))
	}
}

// drawStorageTime draws one storage operation's nominal service time (and
// counts it). Draws happen at dispatch in root context, so their order —
// and therefore the run's whole draw sequence — is a pure function of the
// root event order, identical at any lane or shard count.
func (s *Service) drawStorageTime(st *GraphStorage) float64 {
	if st.WriteFraction > 0 && s.graphRNG.Float64() < st.WriteFraction {
		s.graphStats.StorageWrites++
		return st.WriteTime
	}
	if s.graphRNG.Float64() < st.HitRatio {
		s.graphStats.CacheHits++
		return st.HitTime
	}
	s.graphStats.CacheMisses++
	return st.MissTime
}

// visitSubDone accounts one answered sub-request of a visit; when the
// fan-out drains, the visit succeeds and its out-edges fire.
func (v *graphVisit) visitSubDone(now float64) {
	if v.dead || v.done {
		return
	}
	v.pending--
	if v.pending > 0 {
		return
	}
	v.done = true
	s := v.req.svc
	s.breakerResult(v.node, true, now)
	s.visitSucceeded(v, now)
}

// visitSucceeded follows a completed visit's out-edges and settles the
// request's sync accounting. A request that already terminated (a parallel
// branch failed it) abandons the subtree: no draws, no new visits.
func (s *Service) visitSucceeded(v *graphVisit, now float64) {
	r := v.req
	if r.gr.outcome != outcomePending {
		return
	}
	n := &s.graph.Nodes[v.node]
	for i := range n.Calls {
		c := &n.Calls[i]
		if c.Prob < 1 && s.graphRNG.Float64() >= c.Prob {
			continue
		}
		async := v.async || c.Async
		if async {
			s.graphStats.AsyncCalls++
		} else {
			r.gr.pendingSync++
		}
		s.startVisit(r, c.To, c, 0, async, now)
	}
	if v.async {
		return
	}
	r.gr.pendingSync--
	if r.gr.pendingSync == 0 {
		r.gr.outcome = outcomeCompleted
		s.completeRequest(r, now)
	}
}

// visitTimeout fires the visit's deadline: if the fan-out hasn't drained,
// the visit dies, its still-queued executions are cancelled (running ones
// finish — timeout messages cannot claw back started work, mirroring the
// cancellation physics), the node's breaker records a failure and the
// edge's retry path takes over.
func (s *Service) visitTimeout(v *graphVisit, now float64) {
	if v.done || v.dead {
		return
	}
	v.dead = true
	for i := range v.subs {
		sub := &v.subs[i]
		if sub.done {
			continue
		}
		for _, e := range sub.execs {
			if s.lanes != nil {
				// The root can't read queue state owned by another lane;
				// send the cancel unconditionally and let the instance's
				// lane decide, exactly like the redundancy relay.
				s.lanes.Schedule(rootClass, e.Inst.classID(), now+LaneTransitDelay, (*execCancel)(e))
			} else {
				e.Inst.cancelQueued(e, now)
			}
		}
	}
	s.breakerResult(v.node, false, now)
	s.visitFailed(v, outcomeTimedOut, now)
}

// visitFailed routes a dead visit: retry the edge with exponential
// backoff while budget remains, otherwise swallow (async) or terminate
// the request with the last attempt's failure kind.
func (s *Service) visitFailed(v *graphVisit, kind reqOutcome, now float64) {
	r := v.req
	if r.gr.outcome != outcomePending {
		return
	}
	if c := v.call; c != nil && v.attempt < c.Retries {
		s.graphStats.Retries++
		delay := c.Backoff * math.Pow(2, float64(v.attempt))
		s.scheduleData(rootClass, rootClass, now+delay, (*visitRetry)(v))
		return
	}
	if v.async {
		s.graphStats.AsyncFailures++
		return
	}
	r.gr.outcome = kind
	if kind == outcomeTimedOut {
		s.timedOut++
	} else {
		s.failed++
	}
}

// breakerAllow decides whether a visit may dispatch: always while the
// circuit is closed; once per cooldown as the half-open probe while open.
func (s *Service) breakerAllow(node int, now float64) bool {
	b := &s.breakers[node]
	if !b.open {
		return true
	}
	if now >= b.reopenAt && !b.probing {
		b.probing = true
		return true
	}
	return false
}

// breakerResult feeds a visit's real outcome (success or timeout — never
// a fast-fail, which observed nothing) into the node's circuit.
func (s *Service) breakerResult(node int, ok bool, now float64) {
	n := &s.graph.Nodes[node]
	if n.Breaker == nil {
		return
	}
	b := &s.breakers[node]
	if ok {
		b.open, b.probing, b.consecFails = false, false, 0
		return
	}
	b.consecFails++
	if b.probing {
		// Failed probe: straight back to open for another cooldown.
		b.probing = false
		b.reopenAt = now + n.Breaker.Cooldown
		return
	}
	if !b.open && b.consecFails >= n.Breaker.Failures {
		b.open = true
		b.reopenAt = now + n.Breaker.Cooldown
		s.graphStats.BreakerTrips++
	}
}
