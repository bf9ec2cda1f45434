// Package sim implements a deterministic discrete-event simulation engine:
// a virtual clock, an event queue of Handler events, and periodic tasks.
// All of the PCS reproduction's cluster, workload and service dynamics run
// on top of this engine.
//
// Time is a float64 number of seconds of virtual time. Events scheduled for
// the same instant fire in FIFO order of scheduling, which keeps runs
// reproducible.
//
// The queue is a pointer-free 4-ary heap of 16-byte (time, sequence and
// slot) keys beside a slot array of handlers recycled through a free
// list. A pop walks the hole to a leaf through branch-free four-way
// tournaments, and Cancel is lazy: a cancelled event's entry stays queued
// until it reaches the head, where it is dropped unfired.
package sim

import (
	"fmt"
	"math"
	"math/bits"
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

// entry is one queued event in the engine's 4-ary min-heap, 16 bytes that
// hold no pointer: the fire time as a timeKey and a key, seq<<slotBits |
// slot, where seq numbers the event in scheduling order and slot indexes
// the slot array holding its handler. Entries order as the 128-bit numbers
// (at, key), so by fire time and then by seq: scheduling FIFO among
// same-time events.
type entry struct {
	at, key uint64
}

// sentinel pads the heap past its last entry, so every node's four child
// positions can be read even on the partial last level. It orders after
// every real entry: no finite time's timeKey is all ones.
var sentinel = entry{at: ^uint64(0), key: ^uint64(0)}

const (
	// arity is the queue's branching factor. A 4-ary heap is half as deep
	// as a binary one, and its pop picks among four children with one
	// branch-free tournament (least4).
	arity = 4
	// slotBits is the width of a key's slot index; the sequence number
	// takes the other 40 bits.
	slotBits = 24
	slotMask = 1<<slotBits - 1
	// maxSlots bounds the slot array, so slot indices and the free list's
	// end marker stay below 1<<slotBits, under every live key (seq ≥ 1).
	maxSlots = slotMask
	// maxSeq is the last sequence number a key can carry.
	maxSeq = 1<<(64-slotBits) - 1
	// initialSlots sizes a new engine's slot array and heap, sentinels
	// included (6 and 4 KiB): runs that never queue more than 253 events
	// never grow them.
	initialSlots = 256
)

// slot holds a queued event's handler beside the heap. key is the key of
// the slot's live entry, 0 once that event is cancelled; a free slot's
// key is the index of the next free slot instead (the free list threads
// through the slots). Neither matches a live key, which makes a key
// comparison the whole liveness check.
type slot struct {
	h   Handler
	key uint64
}

// timeKey maps a finite fire time to a uint64 that orders as the float64s
// do under <: the sign bit flipped for non-negative times, every bit for
// negative ones. −0 is normalised to +0 first, so the two tie (and fall
// back to seq) as they compare equal.
func timeKey(t float64) uint64 {
	b := math.Float64bits(t)
	if b == 1<<63 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// timeOf inverts timeKey.
func timeOf(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// lessBit is 1 when a precedes b and 0 otherwise (LessBit).
func lessBit(a, b *entry) uint64 {
	return LessBit(a.at, a.key, b.at, b.key)
}

// TimeKey and TimeOf export timeKey and timeOf, and LessBit the heap's
// comparison, for queues outside this package that order fire times as
// the engine does (the laned data plane's).
func TimeKey(t float64) uint64 { return timeKey(t) }

// TimeOf inverts TimeKey.
func TimeOf(k uint64) float64 { return timeOf(k) }

// LessBit is 1 when the 128-bit number (aHi, aLo) is below (bHi, bLo)
// and 0 otherwise: the borrow out of their subtraction, computed without
// a branch.
func LessBit(aHi, aLo, bHi, bLo uint64) uint64 {
	_, borrow := bits.Sub64(aLo, bLo, 0)
	_, borrow = bits.Sub64(aHi, bHi, borrow)
	return borrow
}

// least4 returns the index of the least of four sibling entries by a
// tournament: the winners of (0, 1) and (2, 3) meet in a final, and each
// winner is selected arithmetically from a borrow. A pop's child choice
// is a coin flip to a branch predictor, which is where a branchy
// comparison spent the heap's time.
func least4(c *[arity]entry) int {
	i := int(lessBit(&c[1], &c[0]))
	j := 2 + int(lessBit(&c[3], &c[2]))
	f := -int(lessBit(&c[j&3], &c[i&1]))
	return i ^ ((i ^ j) & f)
}

// EventHandle allows a scheduled event to be cancelled before it fires. It
// is a small value: copy it freely. The zero value is an inert handle whose
// Cancel is a no-op.
type EventHandle struct {
	engine *Engine
	key    uint64 // the event's entry key; unique over the engine's life
	at     float64
}

// Cancel withdraws the event. Cancelling an event that already fired or
// was already cancelled is a no-op: its slot's key no longer matches the
// handle's, even once a later event reuses the slot. It reports whether
// the event was actually withdrawn. The entry stays queued, with its slot,
// until it reaches the head, where Step and PeekNextTime drop it.
func (h EventHandle) Cancel() bool {
	e := h.engine
	if e == nil {
		return false
	}
	s := &e.slots[h.key&slotMask]
	if s.key != h.key {
		return false
	}
	s.h, s.key = nil, 0
	e.cancelled++
	return true
}

// Time returns the virtual time the event is (or was) scheduled for.
func (h EventHandle) Time() float64 { return h.at }

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now float64
	// q[:n] is the heap; q[n:] holds at least arity−1 sentinels, so a
	// node with a child has all four child positions in bounds.
	q         []entry
	n         int
	slots     []slot
	free      uint64 // first free slot; len(slots) when none is free
	cancelled int    // cancelled entries still queued
	seq       uint64 // the last sequence number issued
	stopped   bool
	fired     uint64
}

// NewEngine returns an engine with the clock at 0. Its heap and slot
// array start at initialSlots entries and grow by append.
func NewEngine() *Engine {
	q := make([]entry, arity-1, initialSlots)
	for i := range q {
		q[i] = sentinel
	}
	return &Engine{q: q, slots: make([]slot, 0, initialSlots)}
}

// push adds x to the heap and sifts it up.
func (e *Engine) push(x entry) {
	if e.n+arity > len(e.q) {
		e.q = append(e.q, sentinel)
	}
	q := e.q
	i := e.n
	e.n++
	for i > 0 {
		p := (i - 1) / arity
		if lessBit(&x, &q[p]) == 0 {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

// pop removes the heap's head by Floyd's method: the hole at the root
// walks down to a leaf, each step lifting the least of its four children
// (least4, sentinels past the last entry never win), and the last entry
// then fills the hole and sifts up, usually not far.
func (e *Engine) pop() {
	e.n--
	n, q := e.n, e.q
	last := q[n]
	q[n] = sentinel
	if n == 0 {
		return
	}
	i := 0
	for c := 1; c < n; c = arity*i + 1 {
		m := c + least4((*[arity]entry)(q[c:c+arity]))
		q[i] = q[m]
		i = m
	}
	for i > 0 {
		p := (i - 1) / arity
		if lessBit(&last, &q[p]) == 0 {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = last
}

// release pops the head, whose slot is i, and returns the slot to the
// free list.
func (e *Engine) release(i uint64) {
	e.pop()
	e.slots[i] = slot{key: e.free}
	e.free = i
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Pending reports the number of events waiting in the queue; cancelled
// events no longer count.
func (e *Engine) Pending() int { return e.n - e.cancelled }

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
	if e.seq == maxSeq {
		panic("sim: sequence numbers exhausted (2^40 - 1 events scheduled)")
	}
	i := e.free
	if i == uint64(len(e.slots)) {
		if i == maxSlots {
			panic("sim: 2^24 - 1 events queued")
		}
		e.slots = append(e.slots, slot{})
		e.free++
	} else {
		e.free = e.slots[i].key
	}
	e.seq++
	key := e.seq<<slotBits | i
	e.slots[i] = slot{h: h, key: key}
	e.push(entry{at: timeKey(t), key: key})
	return EventHandle{engine: e, key: key, at: t}
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
// without executing it, dropping cancelled events from the head first.
// The second return is false when the queue is empty. Together with Step
// it lets callers interleave observation with execution instead of
// handing the whole run to Run.
func (e *Engine) PeekNextTime() (float64, bool) {
	for e.n > 0 {
		top := e.q[0]
		i := top.key & slotMask
		if e.slots[i].key == top.key {
			return timeOf(top.at), true
		}
		e.release(i)
		e.cancelled--
	}
	return 0, false
}

// Step pops the earliest queued event, advances the clock to its fire time
// and executes it; cancelled events at the head are dropped on the way
// (by PeekNextTime). It reports false (and leaves the clock untouched)
// when the queue is empty. Step ignores the horizon and Stop — bounding a
// stepped run is the caller's job, typically via PeekNextTime.
func (e *Engine) Step() bool {
	now, ok := e.PeekNextTime()
	if ok {
		e.fire(now)
	}
	return ok
}

// fire pops the head, which PeekNextTime found live at time now, advances
// the clock to now and executes the event.
func (e *Engine) fire(now float64) {
	i := e.q[0].key & slotMask
	h := e.slots[i].h
	e.release(i) // h is saved; the slot may be reused by h's own scheduling
	e.now = now
	e.fired++
	h.Fire(now)
}

// Run executes events in time order until the queue drains, the horizon is
// reached, or Stop is called. It returns the final virtual time. Events
// scheduled beyond the horizon remain queued; the clock is left at the
// horizon if it was reached. Run is a loop over PeekNextTime and Step's
// firing half; stepped and monolithic execution are interchangeable.
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
		e.fire(next)
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
