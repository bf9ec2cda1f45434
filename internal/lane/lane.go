// Package lane runs the simulation's data plane as a conservative
// parallel discrete-event system. Every data-plane event carries an
// affinity class (one class per component instance, plus a root class for
// request bookkeeping); classes are partitioned across N lanes, each with
// its own event queue, and lanes execute concurrently inside windows
// bounded by the plane's lookahead — the minimum cross-class message
// delay the service physics guarantees.
//
// Determinism contract (the lane extension of internal/shard's rules):
//
//  1. Every event is keyed (fireTime, srcClass, srcSeq), where srcSeq is
//     the sending class's emission counter. The key is assigned by the
//     sender, so it is a pure function of the sender's deterministic
//     execution order — never of lane count or scheduling interleaving.
//  2. Each lane pops its queue in key order. Because class state is only
//     touched by that class's events, and srcClass/srcSeq totally order
//     same-time messages, every class observes an identical event
//     sequence at any lane count.
//  3. Cross-lane messages must fire at least one lookahead after their
//     send time. A window that processes events in [m, m+lookahead)
//     therefore cannot miss a message generated inside it: anything sent
//     by an event at time t ≥ m lands at t+lookahead ≥ m+lookahead,
//     beyond the window. Same-lane messages may fire sooner — the lane's
//     own heap keeps them in key order.
//  4. Lanes synchronize at a barrier after every window; cross-lane
//     messages are folded into the destination heaps there. Heap order is
//     the total key order, so fold order is irrelevant.
//
// Control-plane events (monitor ticks, demand refreshes, scheduling,
// policy evaluation, arrivals) stay on the sim.Engine; Advance interleaves
// them with lane windows so that at an engine event's fire time every
// data-plane event up to and including that time has executed
// (data-plane-before-control). Engine events therefore observe — and may
// freely mutate — lane-owned state: the lanes are parked at a barrier.
package lane

import (
	"fmt"
	"math"

	"repro/internal/shard"
	"repro/internal/sim"
)

// event is one scheduled data-plane handler with its canonical key.
type event struct {
	at  float64
	src int    // sending affinity class
	seq uint64 // sender's emission counter at send time
	h   sim.Handler
}

// keyLess is the canonical total order: (fireTime, srcClass, srcSeq).
// srcSeq is unique per class, so distinct events never compare equal and
// heap pop order is independent of insertion order.
func keyLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// laneState is one lane: a key-ordered event heap plus counters. A lane's
// heap is touched only by its own goroutine during a window and only by
// the coordinator between windows.
type laneState struct {
	heap  []event
	now   float64 // fire time of the event being (or last) processed
	fired uint64
}

// push and pop sift a hole rather than swapping: each level moves one
// event instead of two, and the sifted event is written once at the end.
func (ls *laneState) push(ev event) {
	ls.heap = append(ls.heap, ev)
	h := ls.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !keyLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (ls *laneState) pop() event {
	h := ls.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	ls.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if r := least + 1; r < n && keyLess(h[r], h[least]) {
			least = r
		}
		if !keyLess(h[least], last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
	return top
}

// Plane is the laned data plane. Construct with New, schedule data-plane
// events with Schedule, and drive it — interleaved with the control-plane
// engine — with Advance. A Plane is not safe for concurrent use by
// callers; concurrency happens only inside Advance's windows, between the
// lanes themselves.
type Plane struct {
	n         int
	lookahead float64
	pool      *shard.Pool

	lanes []*laneState
	seqs  []uint64 // per-class emission counters

	// outbox[src][dst] buffers cross-lane messages during a window; the
	// coordinator folds them into the destination heaps at the barrier.
	outbox [][][]event

	// inWindow marks that lane goroutines are running: cross-lane sends
	// must go through the outbox. Written by the coordinator around
	// pool.Run, whose channels order it against the lanes' reads.
	inWindow bool

	active []int // scratch: lanes eligible in the current window

	// strict and incl bound the pooled window in progress, and drain is
	// the region that runs it — bound once in New, so a window allocates
	// no closure. The coordinator writes the bounds before pool.Run,
	// whose channels order them against the lanes' reads.
	strict, incl float64
	drain        func(shard, lo, hi int)
}

// New builds a plane with n lanes. lookahead is the minimum cross-class
// message delay the caller's physics guarantees (seconds, > 0); classes
// names must stay below maxClasses. pool, when non-nil, supplies the
// worker goroutines windows fan out on (it may be shared with the
// control-plane shard regions — windows and shard regions never overlap);
// nil runs lanes inline, which with n == 1 is the zero-overhead case.
func New(n int, lookahead float64, maxClasses int, pool *shard.Pool) (*Plane, error) {
	if n < 1 {
		return nil, fmt.Errorf("lane: need at least 1 lane, got %d", n)
	}
	if !(lookahead > 0) {
		return nil, fmt.Errorf("lane: lookahead must be positive, got %g", lookahead)
	}
	if maxClasses < 1 {
		return nil, fmt.Errorf("lane: need at least 1 affinity class, got %d", maxClasses)
	}
	p := &Plane{
		n:         n,
		lookahead: lookahead,
		pool:      pool,
		lanes:     make([]*laneState, n),
		seqs:      make([]uint64, maxClasses),
		outbox:    make([][][]event, n),
		active:    make([]int, 0, n),
	}
	for i := range p.lanes {
		p.lanes[i] = &laneState{}
		p.outbox[i] = make([][]event, n)
	}
	p.drain = p.drainLanes
	return p, nil
}

// Lanes returns the lane count.
func (p *Plane) Lanes() int { return p.n }

// Pending reports the number of scheduled data-plane events not yet
// executed. Between windows (the only time callers run) the outboxes are
// empty, so the lane heaps are the whole story.
func (p *Plane) Pending() int {
	n := 0
	for _, ls := range p.lanes {
		n += len(ls.heap)
	}
	return n
}

// Fired reports the total number of data-plane events executed.
func (p *Plane) Fired() uint64 {
	var n uint64
	for _, ls := range p.lanes {
		n += ls.fired
	}
	return n
}

// NextEventTime reports the fire time of the earliest pending data-plane
// event, false if none remain.
func (p *Plane) NextEventTime() (float64, bool) {
	at, ok := 0.0, false
	for _, ls := range p.lanes {
		if len(ls.heap) > 0 && (!ok || ls.heap[0].at < at) {
			at, ok = ls.heap[0].at, true
		}
	}
	return at, ok
}

// Schedule schedules h to fire at absolute virtual time at, sent by
// affinity class src to class dst's lane. Inside a window only the
// goroutine running src's lane may send as src; cross-lane sends must
// then respect the lookahead (at ≥ sender's clock + lookahead — violating
// it would break the conservative bound, so it panics). Between windows —
// engine events, setup — any send is fine: the lanes are parked.
func (p *Plane) Schedule(src, dst int, at float64, h sim.Handler) {
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic("lane: scheduling at non-finite time")
	}
	ev := event{at: at, src: src, seq: p.seqs[src], h: h}
	p.seqs[src]++
	sl, dl := src%p.n, dst%p.n
	if !p.inWindow || sl == dl {
		p.lanes[dl].push(ev)
		return
	}
	if at < p.lanes[sl].now+p.lookahead {
		panic(fmt.Sprintf("lane: cross-lane message from class %d at %.9f fires at %.9f, under the %.9f lookahead",
			src, p.lanes[sl].now, at, p.lookahead))
	}
	p.outbox[sl][dl] = append(p.outbox[sl][dl], ev)
}

// runLane drains one lane: events with fire time strictly below strict
// (the conservative bound m+lookahead) and at most incl (the horizon /
// control-plane bound, inclusive so data-plane events at an engine
// event's exact time run first). Same-lane messages generated along the
// way join the heap and are drained in key order within the same window —
// this run-ahead inside a lane is where laning wins over a global clock.
func (p *Plane) runLane(ls *laneState, strict, incl float64) {
	for len(ls.heap) > 0 {
		at := ls.heap[0].at
		if at >= strict || at > incl {
			return
		}
		ev := ls.pop()
		ls.now = ev.at
		ls.fired++
		ev.h.Fire(ev.at)
	}
}

// fold delivers every outbox message into its destination heap. Key order
// makes delivery order irrelevant, so a plain nested loop is canonical.
func (p *Plane) fold() {
	for sl := range p.outbox {
		for dl, msgs := range p.outbox[sl] {
			for _, ev := range msgs {
				p.lanes[dl].push(ev)
			}
			p.outbox[sl][dl] = msgs[:0]
		}
	}
}

// Advance drives the data plane and the control-plane engine together to
// virtual time t: lane windows execute data-plane events in conservative
// parallel, engine events execute one at a time with the lanes parked,
// and at every engine event's fire time all data-plane events up to and
// including that time have already run. The executed event sequence per
// class — and therefore every observable — is identical at any lane
// count and under any slicing of t (pinned as determinism invariant #10).
// The engine clock ends at t.
func (p *Plane) Advance(eng *sim.Engine, t float64) {
	for {
		m, ok := p.NextEventTime()
		if ok && m > t {
			ok = false
		}
		ctl, cok := eng.PeekNextTime()
		if cok && ctl > t {
			cok = false
		}
		if !ok {
			if !cok {
				break
			}
			eng.Step()
			continue
		}
		if cok && ctl < m {
			// The next event anywhere is the engine's: run it with the
			// lanes parked.
			eng.Step()
			continue
		}
		// Window [m, min(m+lookahead, ctl, t)]: every lane drains its
		// eligible prefix. ctl == m still windows first — data plane
		// before control plane at equal times.
		strict := m + p.lookahead
		incl := t
		if cok && ctl < incl {
			incl = ctl
		}
		p.window(strict, incl)
	}
	eng.Run(t)
}

// window runs one synchronous window over all lanes. A window with a
// single eligible lane runs inline on the coordinator — no barrier, no
// outbox; with one lane total, every window takes this path and the plane
// degenerates to a sequential key-ordered loop.
func (p *Plane) window(strict, incl float64) {
	p.active = p.active[:0]
	for i, ls := range p.lanes {
		if len(ls.heap) > 0 && ls.heap[0].at < strict && ls.heap[0].at <= incl {
			p.active = append(p.active, i)
		}
	}
	if len(p.active) == 1 {
		// Direct sends are safe: no other lane is executing, and
		// cross-lane messages land at ≥ strict by the lookahead contract,
		// beyond this window's bound on every lane.
		p.runLane(p.lanes[p.active[0]], strict, incl)
		return
	}
	p.inWindow = true
	p.strict, p.incl = strict, incl
	p.pool.Run(p.n, p.drain)
	p.inWindow = false
	p.fold()
}

// drainLanes runs lanes [lo, hi) to the bounds of the window in progress.
func (p *Plane) drainLanes(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		p.runLane(p.lanes[i], p.strict, p.incl)
	}
}
