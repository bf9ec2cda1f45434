// Package lane runs the simulation's laned data plane: the request path
// as timestamped messages between affinity classes (one class per
// component instance, plus a root class for request bookkeeping), each
// cross-class message paying a network transit delay. The plane holds
// every data-plane event in one queue keyed by class and drives it on
// the caller's goroutine, interleaved with the control-plane engine.
//
// Determinism contract:
//
//  1. Every event is keyed (fireTime, srcClass, srcSeq), where srcSeq is
//     the sending class's emission counter. The key is assigned by the
//     sender, so it is a pure function of the sender's deterministic
//     execution order, and it totally orders same-time events.
//  2. The queue pops in key order, and at equal times data-plane events
//     run before control-plane (engine) events.
//  3. A cross-class message sent while a data-plane event at time t fires
//     lands at ≥ t + transit, so no class hears of another's change
//     sooner than one network transit: the lookahead a conservative
//     parallel executor would synchronise on (DESIGN.md §5). Schedule
//     panics on a send that breaks it.
//
// Control-plane events (monitor ticks, demand refreshes, scheduling,
// policy evaluation, arrivals) stay on the sim.Engine; Advance fires them
// between data-plane events, so they observe — and may freely mutate —
// any class's state.
package lane

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sim"
)

// entry is one queued data-plane event, 24 bytes that hold no pointer:
// the fire time as a sim.TimeKey, key = src<<shift | srcSeq, and the
// index of the slot holding its handler. Entries order as the 128-bit
// numbers (at, key), so by (fireTime, srcClass, srcSeq).
type entry struct {
	at, key uint64
	slot    uint64
}

// sentinel pads the heap past its last entry; it orders after every real
// entry, as no finite time's key is all ones.
var sentinel = entry{at: ^uint64(0), key: ^uint64(0)}

const (
	// arity is the queue's branching factor, as in sim.Engine.
	arity = 4
	// initialSlots sizes a new plane's heap, slot array and free list.
	initialSlots = 256
)

func lessBit(a, b *entry) uint64 { return sim.LessBit(a.at, a.key, b.at, b.key) }

// least4 returns the index of the least of four sibling entries by a
// branch-free tournament (sim.Engine's pop does the same).
func least4(c *[arity]entry) int {
	i := int(lessBit(&c[1], &c[0]))
	j := 2 + int(lessBit(&c[3], &c[2]))
	f := -int(lessBit(&c[j&3], &c[i&1]))
	return i ^ ((i ^ j) & f)
}

// Plane is the laned data plane. Construct with New, schedule data-plane
// events with Schedule, and drive it — interleaved with the control-plane
// engine — with Advance. A Plane is not safe for concurrent use.
type Plane struct {
	transit float64
	shift   uint   // a key's class offset: 64 − bits.Len(maxClasses)
	maxSeq  uint64 // the last emission counter a key can carry
	seqs    []uint64

	// q[:n] is the 4-ary heap; q[n:] holds at least arity−1 sentinels.
	// Handlers sit in hs, indexed by an entry's slot; free lists the
	// slots whose events have fired.
	q    []entry
	n    int
	hs   []sim.Handler
	free []uint64

	fired uint64
	// now is the time of the data-plane event firing, −Inf outside one.
	now float64
}

// New builds a plane whose cross-class messages pay at least transit
// seconds (> 0); class names must stay below maxClasses.
func New(transit float64, maxClasses int) (*Plane, error) {
	if !(transit > 0) {
		return nil, fmt.Errorf("lane: transit delay must be positive, got %g", transit)
	}
	if maxClasses < 1 {
		return nil, fmt.Errorf("lane: need at least 1 affinity class, got %d", maxClasses)
	}
	shift := uint(64 - bits.Len(uint(maxClasses)))
	q := make([]entry, arity-1, initialSlots)
	for i := range q {
		q[i] = sentinel
	}
	return &Plane{
		transit: transit,
		shift:   shift,
		maxSeq:  1<<shift - 1,
		seqs:    make([]uint64, maxClasses),
		q:       q,
		hs:      make([]sim.Handler, 0, initialSlots),
		free:    make([]uint64, 0, initialSlots),
		now:     math.Inf(-1),
	}, nil
}

// Pending reports the number of scheduled data-plane events not yet
// executed.
func (p *Plane) Pending() int { return p.n }

// Fired reports the total number of data-plane events executed.
func (p *Plane) Fired() uint64 { return p.fired }

// NextEventTime reports the fire time of the earliest pending data-plane
// event, false if none remain.
func (p *Plane) NextEventTime() (float64, bool) {
	if p.n == 0 {
		return 0, false
	}
	return sim.TimeOf(p.q[0].at), true
}

// Schedule schedules h to fire at absolute virtual time at, sent by
// affinity class src to class dst. While a data-plane event fires, a
// cross-class send must land at least one transit after that event's
// time, or Schedule panics: the physics promises every class that much
// notice. Sends from engine events and set-up are not bounded.
func (p *Plane) Schedule(src, dst int, at float64, h sim.Handler) {
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic("lane: scheduling at non-finite time")
	}
	if src != dst && at < p.now+p.transit {
		panic(fmt.Sprintf("lane: message from class %d at %.9f to class %d fires at %.9f, under the %.9f transit",
			src, p.now, dst, at, p.transit))
	}
	seq := p.seqs[src]
	if seq > p.maxSeq {
		panic(fmt.Sprintf("lane: class %d exhausted its %d-bit sequence numbers", src, p.shift))
	}
	p.seqs[src] = seq + 1
	var i uint64
	if k := len(p.free); k > 0 {
		i = p.free[k-1]
		p.free = p.free[:k-1]
	} else {
		i = uint64(len(p.hs))
		p.hs = append(p.hs, nil)
	}
	p.hs[i] = h
	p.push(entry{at: sim.TimeKey(at), key: uint64(src)<<p.shift | seq, slot: i})
}

// push adds x to the heap and sifts it up.
func (p *Plane) push(x entry) {
	if p.n+arity > len(p.q) {
		p.q = append(p.q, sentinel)
	}
	q := p.q
	i := p.n
	p.n++
	for i > 0 {
		up := (i - 1) / arity
		if lessBit(&x, &q[up]) == 0 {
			break
		}
		q[i] = q[up]
		i = up
	}
	q[i] = x
}

// pop removes the heap's head by Floyd's method, as sim.Engine does.
func (p *Plane) pop() {
	p.n--
	n, q := p.n, p.q
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
		up := (i - 1) / arity
		if lessBit(&last, &q[up]) == 0 {
			break
		}
		q[i] = q[up]
		i = up
	}
	q[i] = last
}

// fire pops the head and executes it at its time, at.
func (p *Plane) fire(at float64) {
	i := p.q[0].slot
	h := p.hs[i]
	p.hs[i] = nil
	p.free = append(p.free, i)
	p.pop()
	p.fired++
	p.now = at
	h.Fire(at)
	p.now = math.Inf(-1)
}

// Advance drives the data plane and the control-plane engine together to
// virtual time t: data-plane events in key order, each engine event once
// every data-plane event up to and including its time has run. The
// executed event sequence — and therefore every observable — does not
// depend on how t slices the run (determinism invariant #10). The engine
// clock ends at t.
//
// The engine's head is read once per run of data-plane events rather than
// after each one. That is exact because no data-plane handler schedules
// an engine event: in laned mode only control-plane code calls the
// engine's Schedule or After, so the head cannot move while data-plane
// events fire.
func (p *Plane) Advance(eng *sim.Engine, t float64) {
	for {
		ctl, ok := eng.PeekNextTime()
		bound := t
		if ok && ctl < bound {
			bound = ctl
		}
		for k := sim.TimeKey(bound); p.n > 0 && p.q[0].at <= k; {
			p.fire(sim.TimeOf(p.q[0].at))
		}
		if !ok || ctl > t {
			break
		}
		eng.Step()
	}
	eng.Run(t)
}
