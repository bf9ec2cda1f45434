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

	// fan is the current stage's fan-out on the linear stage path; DAG
	// visits carry their own.
	fan fanOut
}

// fanOut is what every sub-request of one fan-out shares: the request,
// the DAG visit that issued it (nil on the linear stage path) and the
// issue time. A sub-request reads the issue time only until it completes,
// and a stage cannot advance while any of its sub-requests is undone, so
// the linear path reuses the request's record from stage to stage; a
// visit's record never changes.
type fanOut struct {
	req      *Request
	visit    *graphVisit
	issuedAt float64
}

// Hooks are the per-policy behaviours a dispatched sub-request keeps for
// its whole life. A policy builds its record once and points every
// sub-request it dispatches at it, so an execution that starts or
// finishes after its stage advanced, or after a policy swap, still acts
// under the policy that dispatched it.
type Hooks struct {
	// CancelOnStart, when positive, sends cancellation messages to
	// sibling executions when any execution begins service; the messages
	// take effect after this network delay (seconds). Zero disables the
	// mechanism (Basic, reissue).
	CancelOnStart float64
	// OnDone, if set, is called once when the winning execution completes
	// (reissue policies use it to update their expected-latency
	// estimates).
	OnDone func(sub *SubRequest, now float64)
}

// SubRequest is the unit of work one component contributes to one request's
// stage. A policy may execute it on several instances (redundancy) or
// re-execute it after a delay (reissue); the first completion wins and
// defines the component latency the evaluation reports.
//
// Sub-requests live in slabs: a stage's (or a DAG visit's) sub-requests
// are one []SubRequest, allocated together and reclaimed by the garbage
// collector once nothing points into it. Their executions after the first
// live in one arena per slab the same way. The record holds only
// per-component state; what the fan-out or the dispatching policy shares
// sits behind one pointer each, so a sub-request is 96 bytes.
type SubRequest struct {
	fan  *fanOut
	Comp *Component

	// first is the first execution, inline, so a sub-request that
	// executes once — Basic, PCS, a reissue that never fires — needs no
	// storage beyond its slab slot. more holds the later ones in issue
	// order: a window of the request's execution arena, carved at the
	// first extra issue (see newExecution). Queue slots and events point
	// into both, so neither ever moves.
	first Execution
	more  []Execution

	// hooks are the dispatching policy's (nil for none).
	hooks *Hooks

	done       bool
	cancelSent bool
	// op is the storage operation drawn at dispatch on a storage node,
	// whose work replaces the stage's nominal service time for every
	// execution (noStorageOp elsewhere). Immutable after dispatch, so
	// instance classes may read it freely.
	op storageOp
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

// IssuedAt returns the time the sub-request was dispatched. It holds
// while the sub-request is undone and in its completion hook; once its
// stage advances, the linear stage path reuses the record for the next.
func (sub *SubRequest) IssuedAt() float64 { return sub.fan.issuedAt }

// SetHooks points the sub-request at its dispatching policy's hooks. The
// record is shared by everything the policy dispatches, so it must not
// change once set.
func (sub *SubRequest) SetHooks(h *Hooks) { sub.hooks = h }

// cancelOnStart is the dispatching policy's cancel-on-start delay, 0 for
// none.
func (sub *SubRequest) cancelOnStart() float64 {
	if sub.hooks == nil {
		return 0
	}
	return sub.hooks.CancelOnStart
}

// IssueTo dispatches the sub-request to an instance at virtual time now,
// creating an execution and enqueueing it. Policies call this one or more
// times per sub-request, always from root-class context. In laned mode the
// dispatch message pays the network transit delay before reaching the
// instance's class, and the root's outstanding-execution ledger for the
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

func (sub *SubRequest) svc() *Service { return sub.fan.req.svc }

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
		sub.more = sub.fan.req.executionWindow(sub.Comp)
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
	delay := sub.cancelOnStart()
	if delay <= 0 || sub.cancelSent {
		return
	}
	sub.cancelSent = true
	sub.svc().engine.Schedule(now+delay, (*cancelSweep)(sub))
}

// onStartLaned is the laned counterpart of onStart: it runs on the root
// class when an instance's start notice arrives (one LaneTransitDelay
// after service began at started.StartAt). The root relays cancellation
// messages to every sibling's instance class, timed from the true start —
// they land StartAt+cancelOnStart, exactly when the sequential physics
// would land them relative to the start. Because the notice already
// consumed one transit delay, the relay needs cancelOnStart ≥
// 2×LaneTransitDelay to respect the plane's transit rule; the simulation
// validates that at construction. Whether a sibling is still queued is
// decided by its own class when the message lands — the root never peeks
// at queue state it doesn't own.
func (sub *SubRequest) onStartLaned(started *Execution, now float64) {
	if sub.cancelSent {
		return
	}
	sub.cancelSent = true
	svc := sub.svc()
	fire := started.StartAt + sub.cancelOnStart()
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
	// The record and the hook read the issue time, so both come before
	// the stage accounting that may start the next stage.
	svc.collector.RecordComponent(now, sub.Comp.Stage, now-sub.fan.issuedAt)
	if h := sub.hooks; h != nil && h.OnDone != nil {
		h.OnDone(sub, now)
	}
	if v := sub.fan.visit; v != nil {
		v.visitSubDone(now)
		return
	}
	sub.fan.req.subDone(now)
}

// startStage fans the request out to every component of its current
// stage, from one slab of sub-requests.
func (r *Request) startStage(now float64) {
	svc := r.svc
	comps := svc.stageComponents[r.stage]
	r.pending = len(comps)
	r.fan = fanOut{req: r, issuedAt: now}
	subs := make([]SubRequest, len(comps))
	for i, c := range comps {
		sub := &subs[i]
		sub.fan, sub.Comp = &r.fan, c
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
