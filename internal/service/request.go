package service

import "fmt"

// Request is one end-to-end service request walking the topology's stages
// sequentially. Its overall latency is the sum of stage latencies (Eq. 4),
// realised directly by the event order: a stage only starts after the
// previous one delivered all of its sub-responses.
type Request struct {
	ID        int
	ArrivedAt float64
	// Tenant names the tenant the request arrived under ("" for
	// untenanted traffic); completion records the latency under the
	// tenant's breakdown as well as the overall distribution.
	Tenant string
	// Class is the request class carried by trace metadata, recorded but
	// not acted on.
	Class string

	svc     *Service
	stage   int
	pending int // sub-requests outstanding in the current stage

	// arena is the unclaimed tail of the request's execution arena:
	// sub-requests carve their windows for executions after the first
	// from it (see executionWindow).
	arena []Execution

	// gr is the DAG bookkeeping, used only when the deployment runs a
	// GraphPlan; requests on the linear stage path leave it zero.
	gr graphReq
}

// SubRequest is the unit of work one component contributes to one request's
// stage. A policy may execute it on several instances (redundancy) or
// re-execute it after a delay (reissue); the first completion wins and
// defines the component latency the evaluation reports.
//
// Sub-requests live in slabs: a stage's (or a DAG visit's) sub-requests
// are one []SubRequest, allocated together and reclaimed by the garbage
// collector once nothing points into it. Their executions after the first
// live in one arena per slab the same way.
type SubRequest struct {
	Req  *Request
	Comp *Component

	IssuedAt float64

	// first is the first execution, inline, so a sub-request that
	// executes once — Basic, PCS, a reissue that never fires — needs no
	// storage beyond its slab slot. more holds the later ones in issue
	// order: a window of the request's execution arena, carved at the
	// first extra issue (see newExecution). Queue slots and events point
	// into both, so neither ever moves.
	first Execution
	more  []Execution

	// cancelOnStart, when positive, sends cancellation messages to sibling
	// executions when any execution begins service; the messages take
	// effect after this network delay (seconds). Zero disables the
	// mechanism (Basic, reissue).
	cancelOnStart float64

	// OnDone, if set by the policy, is called once when the winning
	// execution completes (reissue policies use it to update their
	// expected-latency estimates). Policies store one func value in every
	// sub-request they dispatch, not a closure per sub-request.
	OnDone func(sub *SubRequest, now float64)

	// visit is the DAG visit that issued the sub-request (nil on the
	// linear stage path); completion routes to it instead of the
	// request's stage accounting.
	visit *graphVisit
	// baseOverride, when positive, replaces the stage's nominal service
	// time for this sub-request's executions — storage nodes set it to
	// the drawn per-operation work. Immutable after dispatch, so
	// instance lanes may read it freely.
	baseOverride float64

	done       bool
	cancelSent bool
}

// cancelSweep is a sub-request viewed as its sequential cancel-on-start
// sweep: the event cancels every execution still queued when it lands.
// The execution whose start sent it is running or done by then, so
// cancelQueued leaves it alone.
type cancelSweep SubRequest

func (c *cancelSweep) Fire(now float64) {
	c.first.Inst.cancelQueued(&c.first, now)
	for i := range c.more {
		e := &c.more[i]
		e.Inst.cancelQueued(e, now)
	}
}

// Done reports whether a winning execution has completed.
func (sub *SubRequest) Done() bool { return sub.done }

// EnableCancelOnStart turns on redundancy-style cancellation: when one
// execution starts service, siblings still queued are cancelled after the
// given message delay.
func (sub *SubRequest) EnableCancelOnStart(delay float64) { sub.cancelOnStart = delay }

// IssueTo dispatches the sub-request to an instance at virtual time now,
// creating an execution and enqueueing it. Policies call this one or more
// times per sub-request, always from root-class context. In laned mode the
// dispatch message pays the network transit delay before reaching the
// instance's lane, and the root's outstanding-execution ledger for the
// instance (PickInstance's load signal) is charged at send time.
func (sub *SubRequest) IssueTo(in *Instance, now float64) *Execution {
	e := sub.newExecution()
	*e = Execution{Sub: sub, Inst: in}
	svc := sub.svc()
	if svc.lanes != nil {
		in.rootOutstanding++
		svc.lanes.Schedule(rootClass, in.classID(), now+LaneTransitDelay, (*execArrive)(e))
		return e
	}
	in.enqueue(e, now)
	return e
}

func (sub *SubRequest) svc() *Service { return sub.Req.svc }

// newExecution returns the record for the sub-request's next execution:
// the inline one first, then the next slot of its window. Issuing past
// the window is a policy bug — no built-in policy issues more than the
// component's active instances — so it panics rather than move
// executions that queues and events already point to.
func (sub *SubRequest) newExecution() *Execution {
	if sub.first.Sub == nil {
		return &sub.first
	}
	n := len(sub.more)
	if n == cap(sub.more) {
		if n > 0 {
			panic(fmt.Sprintf("service: policy %s issued a sub-request of component %d.%d past its %d executions",
				sub.svc().policy.Name(), sub.Comp.Stage, sub.Comp.IndexInStage, n+1))
		}
		sub.more = sub.Req.executionWindow(sub.Comp)
	}
	sub.more = sub.more[:n+1]
	return &sub.more[n]
}

// executionWindow carves from the request's arena the window holding a
// sub-request's executions after its first: one slot per other active
// instance of comp, at least one. The size comes from the component,
// never from the current policy — a reissue timer may fire after a swap
// to Basic. When the arena runs short it is refilled for every
// sub-request left in the slab from this one, so a RED-k stage fans out
// from one arena.
func (r *Request) executionWindow(comp *Component) []Execution {
	w := max(len(comp.ActiveInstances())-1, 1)
	if len(r.arena) < w {
		left := len(r.svc.stageComponents[comp.Stage]) - comp.IndexInStage
		r.arena = make([]Execution, w*left)
	}
	win := r.arena[:0:w]
	r.arena = r.arena[w:]
	return win
}

// onStart is invoked when any execution of this sub-request begins service
// at now (sequential mode only). With cancellation enabled, it sends cancel
// messages to sibling executions; they land after the configured network
// delay, and only affect executions still queued at that point. Two
// replicas that start within the delay window both run to completion — the
// paper's "cancellation messages both in flight" effect.
func (sub *SubRequest) onStart(now float64) {
	if sub.cancelOnStart <= 0 || sub.cancelSent {
		return
	}
	sub.cancelSent = true
	sub.svc().engine.Schedule(now+sub.cancelOnStart, (*cancelSweep)(sub))
}

// onStartLaned is the laned counterpart of onStart: it runs on the root
// class when an instance's start notice arrives (one LaneTransitDelay
// after service began at started.StartAt). The root relays cancellation
// messages to every sibling's instance class, timed from the true start —
// they land StartAt+cancelOnStart, exactly when the sequential physics
// would land them relative to the start. Because the notice already
// consumed one transit delay, the relay needs cancelOnStart ≥
// 2×LaneTransitDelay to respect the plane's lookahead; the simulation
// validates that at construction. Whether a sibling is still queued is
// decided by its own lane when the message lands — the root never peeks
// at queue state it doesn't own.
func (sub *SubRequest) onStartLaned(started *Execution, now float64) {
	if sub.cancelSent {
		return
	}
	sub.cancelSent = true
	svc := sub.svc()
	fire := started.StartAt + sub.cancelOnStart
	// cancelOnStart ≥ 2×LaneTransitDelay is validated at construction;
	// the clamp only absorbs the one-ulp rounding of the equality case.
	if min := now + LaneTransitDelay; fire < min {
		fire = min
	}
	relay := func(e *Execution) {
		if e != started {
			svc.lanes.Schedule(rootClass, e.Inst.classID(), fire, (*execCancel)(e))
		}
	}
	relay(&sub.first)
	for i := range sub.more {
		relay(&sub.more[i])
	}
}

// onComplete is invoked when any execution finishes. The first completion
// wins: the component latency (issue → completion of the quickest replica)
// is recorded and the request's stage accounting advances. Later
// completions are losers whose server time was already charged.
func (sub *SubRequest) onComplete(now float64) {
	if sub.done {
		return
	}
	sub.done = true
	svc := sub.svc()
	svc.collector.RecordComponent(now, sub.Comp.Stage, now-sub.IssuedAt)
	if sub.OnDone != nil {
		sub.OnDone(sub, now)
	}
	if sub.visit != nil {
		sub.visit.visitSubDone(now)
		return
	}
	sub.Req.subDone(now)
}

// startStage fans the request out to every component of its current
// stage, from one slab of sub-requests.
func (r *Request) startStage(now float64) {
	svc := r.svc
	comps := svc.stageComponents[r.stage]
	r.pending = len(comps)
	subs := make([]SubRequest, len(comps))
	for i, c := range comps {
		sub := &subs[i]
		sub.Req, sub.Comp, sub.IssuedAt = r, c, now
		svc.policy.Dispatch(svc, sub, now)
	}
}

// subDone accounts one completed sub-request; when the stage drains it
// advances to the next stage or completes the request.
func (r *Request) subDone(now float64) {
	r.pending--
	if r.pending > 0 {
		return
	}
	r.stage++
	if r.stage < len(r.svc.stageComponents) {
		r.startStage(now)
		return
	}
	r.svc.completeRequest(r, now)
}
