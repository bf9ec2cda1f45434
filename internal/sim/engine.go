// Package sim implements a deterministic discrete-event simulation engine:
// a virtual clock, a concrete 4-ary-heap event queue of Handler events, and
// periodic tasks. All of the PCS reproduction's cluster, workload and
// service dynamics run on top of this engine.
//
// Time is a float64 number of seconds of virtual time. Events scheduled for
// the same instant fire in FIFO order of scheduling, which keeps runs
// reproducible.
package sim

import (
	"fmt"
	"math"
)

// Handler is what a scheduled event runs: Fire is called once, at the
// event's virtual time. Hot paths implement it on records they already
// hold, so scheduling stores a pointer and allocates nothing.
type Handler interface {
	Fire(now float64)
}

// Event is a callback scheduled to run at a point in virtual time. It
// implements Handler; a func value is pointer-shaped, so converting one to
// a Handler allocates nothing either.
type Event func(now float64)

// Fire implements Handler by calling the function.
func (f Event) Fire(now float64) { f(now) }

type scheduledEvent struct {
	at    float64
	seq   uint64 // tie-break: FIFO among same-time events
	h     Handler
	index int // heap index, -1 once popped or cancelled
}

// before is the queue's total order: fire time, then scheduling order.
// seq is unique, so distinct events never compare equal.
func (a *scheduledEvent) before(b *scheduledEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// EventHandle allows a scheduled event to be cancelled before it fires. It
// is a small value: copy it freely. The zero value is an inert handle whose
// Cancel is a no-op.
type EventHandle struct {
	ev     *scheduledEvent
	engine *Engine
	seq    uint64 // guards against the pooled event being reused
	at     float64
}

// Cancel removes the event from the queue. Cancelling an event that already
// fired or was already cancelled is a no-op — the event structs are pooled,
// so the handle's sequence number distinguishes its event from a later one
// reusing the same struct. It reports whether the event was actually
// removed.
func (h EventHandle) Cancel() bool {
	if h.ev == nil || h.ev.index < 0 || h.ev.seq != h.seq {
		return false
	}
	h.engine.remove(h.ev.index)
	h.engine.recycle(h.ev)
	return true
}

// Time returns the virtual time the event is (or was) scheduled for.
func (h EventHandle) Time() float64 { return h.at }

// arity is the queue's branching factor. A 4-ary heap is half as deep as
// a binary one; it measured faster than a binary heap at the request
// path's queue depth.
const arity = 4

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     float64
	queue   []*scheduledEvent // arity-ary min-heap under before
	seq     uint64
	stopped bool
	fired   uint64
	free    []*scheduledEvent // recycled event structs (hot-path pooling)
}

// NewEngine returns an engine with the clock at 0. The event queue is
// pre-sized so steady-state simulation rarely grows it; the event pool
// fills lazily, a chunk at a time, and from fired events.
func NewEngine() *Engine {
	return &Engine{queue: make([]*scheduledEvent, 0, 1024)}
}

// eventChunk is how many event structs the pool allocates at once when it
// runs dry: a run holding hundreds of events in flight fills its pool in
// a few allocations instead of one per event.
const eventChunk = 64

// alloc takes an event struct from the pool, refilling it with a fresh
// chunk when empty.
func (e *Engine) alloc() *scheduledEvent {
	if len(e.free) == 0 {
		chunk := make([]scheduledEvent, eventChunk)
		for i := range chunk {
			e.free = append(e.free, &chunk[i])
		}
	}
	n := len(e.free) - 1
	ev := e.free[n]
	e.free[n] = nil
	e.free = e.free[:n]
	return ev
}

// recycle returns a popped or cancelled event struct to the pool. The
// struct's sequence number stays until reuse; outstanding handles detect
// staleness via index < 0 now and the seq mismatch after reuse.
func (e *Engine) recycle(ev *scheduledEvent) {
	ev.h = nil
	ev.index = -1
	e.free = append(e.free, ev)
}

// up moves the event at slot i toward the root until its parent precedes
// it, keeping every moved event's index current.
func (e *Engine) up(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / arity
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down moves the event at slot i toward the leaves until it precedes all
// of its children. It reports whether the event moved.
func (e *Engine) down(i int) bool {
	q := e.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		least := c
		for j, end := c+1, min(c+arity, n); j < end; j++ {
			if q[j].before(q[least]) {
				least = j
			}
		}
		if !q[least].before(ev) {
			break
		}
		q[i] = q[least]
		q[i].index = i
		i = least
	}
	q[i] = ev
	ev.index = i
	return i != start
}

// remove takes the event at slot i out of the queue: the last slot fills
// the hole and sifts whichever way restores the heap order.
func (e *Engine) remove(i int) {
	n := len(e.queue) - 1
	ev := e.queue[i]
	last := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if i != n {
		e.queue[i] = last
		if !e.down(i) {
			e.up(i)
		}
	}
	ev.index = -1
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// Fired reports the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule schedules h to fire at absolute virtual time t. Scheduling in
// the past panics: it indicates a logic bug that would silently corrupt
// causality.
func (e *Engine) Schedule(t float64, h Handler) EventHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %.9f before now %.9f", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic("sim: scheduling at non-finite time")
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.h = t, e.seq, h
	e.seq++
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
	return EventHandle{ev: ev, engine: e, seq: ev.seq, at: t}
}

// At schedules fn to run at absolute virtual time t (see Schedule).
func (e *Engine) At(t float64, fn Event) EventHandle {
	return e.Schedule(t, fn)
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn Event) EventHandle {
	return e.Schedule(e.now+d, fn)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// PeekNextTime reports the virtual time of the earliest queued event
// without executing it. The second return is false when the queue is empty.
// Together with Step it lets callers interleave observation with execution
// instead of handing the whole run to Run.
func (e *Engine) PeekNextTime() (float64, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Step pops the earliest queued event, advances the clock to its fire time
// and executes it. It reports false (and leaves the clock untouched) when
// the queue is empty. Step ignores the horizon and Stop — bounding a
// stepped run is the caller's job, typically via PeekNextTime.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	next := e.queue[0]
	e.remove(0)
	e.now = next.at
	h := next.h
	e.recycle(next) // h is saved; the struct may be reused by h's own scheduling
	e.fired++
	h.Fire(e.now)
	return true
}

// Run executes events in time order until the queue drains, the horizon is
// reached, or Stop is called. It returns the final virtual time. Events
// scheduled beyond the horizon remain queued; the clock is left at the
// horizon if it was reached. Run is a loop over the PeekNextTime/Step
// primitives; stepped and monolithic execution are interchangeable.
func (e *Engine) Run(horizon float64) float64 {
	e.stopped = false
	for !e.stopped {
		next, ok := e.PeekNextTime()
		if !ok {
			break
		}
		if next > horizon {
			e.now = horizon
			return e.now
		}
		e.Step()
	}
	if e.now < horizon && !e.stopped && !math.IsInf(horizon, 1) {
		e.now = horizon
	}
	return e.now
}

// RunUntilEmpty executes all queued events regardless of time.
func (e *Engine) RunUntilEmpty() float64 {
	return e.Run(math.Inf(1))
}

// Every schedules fn to run now+period, now+2·period, ... until the returned
// Ticker is stopped. The first invocation is one period from now (or at
// start if a positive start offset is supplied via EveryAt).
func (e *Engine) Every(period float64, fn Event) *Ticker {
	return e.EveryAt(e.now+period, period, fn)
}

// EveryAt schedules fn at absolute time first and then every period
// thereafter.
func (e *Engine) EveryAt(first, period float64, fn Event) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.handle = e.Schedule(first, (*tick)(t))
	return t
}

// Ticker repeatedly fires a callback at a fixed virtual-time period.
type Ticker struct {
	engine  *Engine
	period  float64
	fn      Event
	handle  EventHandle
	stopped bool
}

// tick is a Ticker viewed as its own recurring event.
type tick Ticker

func (k *tick) Fire(now float64) {
	t := (*Ticker)(k)
	if t.stopped {
		return
	}
	t.fn(now)
	if !t.stopped {
		t.handle = t.engine.Schedule(now+t.period, k)
	}
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}
