package lane

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("zero transit accepted")
	}
	if _, err := New(-1, 4); err == nil {
		t.Error("negative transit accepted")
	}
	if _, err := New(0.1, 0); err == nil {
		t.Error("0 classes accepted")
	}
	if _, err := New(0.1, 4); err != nil {
		t.Errorf("valid plane rejected: %v", err)
	}
}

func TestHeapPopsInKeyOrder(t *testing.T) {
	p, err := New(0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		at  float64
		src int
		seq uint64
	}
	push := func(e ev) {
		p.push(entry{at: sim.TimeKey(e.at), key: uint64(e.src)<<p.shift | e.seq})
	}
	pop := func() ev {
		top := p.q[0]
		p.pop()
		return ev{sim.TimeOf(top.at), int(top.key >> p.shift), top.key & p.maxSeq}
	}
	// Push in scrambled order; pops must come out sorted by
	// (at, src, seq) regardless.
	for _, e := range []ev{
		{2, 0, 0}, {1, 1, 5}, {1, 0, 9}, {1, 1, 2}, {3, 2, 0}, {1, 0, 1},
	} {
		push(e)
	}
	want := []ev{{1, 0, 1}, {1, 0, 9}, {1, 1, 2}, {1, 1, 5}, {2, 0, 0}, {3, 2, 0}}
	for i, w := range want {
		if got := pop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
	// A larger random mix, ties in time and class included, against a sort.
	rng := rand.New(rand.NewSource(1))
	var evs []ev
	for i := 0; i < 500; i++ {
		e := ev{float64(rng.Intn(20)), rng.Intn(4), uint64(rng.Intn(1000))}
		evs = append(evs, e)
		push(e)
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for i, w := range evs {
		if got := pop(); got != w {
			t.Fatalf("random pop %d = %+v, want %+v", i, got, w)
		}
	}
	if p.n != 0 || p.q[0] != sentinel {
		t.Fatalf("drained heap holds %d entries, head %+v", p.n, p.q[0])
	}
}

// TestKeyCarriesEveryClassAndSequence pins the key layout: the largest
// class and the largest per-class sequence number both fit, in that
// order, and one more send from an exhausted class panics.
func TestKeyCarriesEveryClassAndSequence(t *testing.T) {
	const classes = 18625 // large-cluster's class space
	p, err := New(0.1, classes)
	if err != nil {
		t.Fatal(err)
	}
	last := uint64(1)<<(64-bits.Len(classes)) - 1
	var order []int
	log := func(c int) sim.Event { return func(float64) { order = append(order, c) } }
	p.seqs[0] = last
	p.Schedule(classes-1, classes-1, 1, log(classes-1))
	p.Schedule(1, 1, 1, log(1))
	p.Schedule(0, 0, 1, log(0)) // the largest sequence number class 0 can carry
	p.Advance(sim.NewEngine(), 2)
	if want := []int{0, 1, classes - 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("same-time sends fired in class order %v, want %v", order, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a send past the last sequence number did not panic")
		}
	}()
	p.Schedule(0, 0, 3, log(0))
}

// executor is what the order tests drive: the plane over a sim.Engine,
// or the reference model below.
type executor interface {
	send(src, dst int, at float64, h func(now float64))
	control(at float64, h func(now float64))
	advance(t float64)
	pending() int
}

type planeExec struct {
	p   *Plane
	eng *sim.Engine
}

func newPlaneExec(t testing.TB, transit float64, classes int) executor {
	p, err := New(transit, classes)
	if err != nil {
		t.Fatal(err)
	}
	return &planeExec{p, sim.NewEngine()}
}

func (x *planeExec) send(src, dst int, at float64, h func(float64)) {
	x.p.Schedule(src, dst, at, sim.Event(h))
}
func (x *planeExec) control(at float64, h func(float64)) { x.eng.At(at, h) }
func (x *planeExec) advance(t float64)                   { x.p.Advance(x.eng, t) }
func (x *planeExec) pending() int                        { return x.p.Pending() + x.eng.Pending() }

// refExec is the reference order, by linear scans: the pending data-plane
// event least by (at, src, srcSeq) fires next unless an engine event
// comes strictly earlier; engine events fire by (at, scheduling order).
type refExec struct {
	seqs      []uint64
	data, ctl []refEvent
	ctlSeq    uint64
}

type refEvent struct {
	at  float64
	src int
	seq uint64
	h   func(float64)
}

func newRefExec(_ testing.TB, _ float64, classes int) executor {
	return &refExec{seqs: make([]uint64, classes)}
}

func (r *refExec) send(src, dst int, at float64, h func(float64)) {
	r.data = append(r.data, refEvent{at, src, r.seqs[src], h})
	r.seqs[src]++
}

func (r *refExec) control(at float64, h func(float64)) {
	r.ctl = append(r.ctl, refEvent{at: at, seq: r.ctlSeq, h: h})
	r.ctlSeq++
}

func (r *refExec) pending() int { return len(r.data) + len(r.ctl) }

func (r *refExec) advance(t float64) {
	for {
		d := -1
		for i, e := range r.data {
			if b := d; b < 0 || e.at < r.data[b].at ||
				e.at == r.data[b].at && (e.src < r.data[b].src || e.src == r.data[b].src && e.seq < r.data[b].seq) {
				d = i
			}
		}
		c := -1
		for i, e := range r.ctl {
			if c < 0 || e.at < r.ctl[c].at || e.at == r.ctl[c].at && e.seq < r.ctl[c].seq {
				c = i
			}
		}
		switch {
		case d >= 0 && r.data[d].at <= t && (c < 0 || r.data[d].at <= r.ctl[c].at):
			e := r.data[d]
			r.data = append(r.data[:d], r.data[d+1:]...)
			e.h(e.at)
		case c >= 0 && r.ctl[c].at <= t:
			e := r.ctl[c]
			r.ctl = append(r.ctl[:c], r.ctl[c+1:]...)
			e.h(e.at)
		default:
			return
		}
	}
}

// stamp formats a fire time for a log; −0 and +0 compare equal and print
// alike.
func stamp(at float64) string {
	if at == 0 {
		at = 0
	}
	return fmt.Sprintf("%.6f", at)
}

// cascade schedules a deterministic message storm across classes and
// returns the execution log: each class relays work to the next class
// (cross-class, one transit later) and to itself (same-class, sooner), and
// an engine event at a relay time injects more, so equal-time ties span
// classes and both planes.
func cascade(t *testing.T, newExec func(testing.TB, float64, int) executor) []string {
	t.Helper()
	const classes, depth = 5, 6
	const la = 0.001
	x := newExec(t, la, classes)
	var log []string
	var relay func(cls, d int) func(float64)
	relay = func(cls, d int) func(float64) {
		return func(now float64) {
			log = append(log, fmt.Sprintf("%d:%d@%s", cls, d, stamp(now)))
			if d >= depth {
				return
			}
			next := (cls + 1) % classes
			x.send(cls, next, now+la, relay(next, d+1))
			x.send(cls, cls, now+la/7, relay(cls, d+1))
		}
	}
	for c := 0; c < classes; c++ {
		x.send(c, c, 0.01*float64(c+1), relay(c, 0))
	}
	x.control(0.011, func(now float64) {
		log = append(log, "control@"+stamp(now))
		x.send(0, 3, now, relay(3, depth-1))
	})
	x.advance(0.015)
	x.advance(1)
	if n := x.pending(); n != 0 {
		t.Fatalf("%d events left pending", n)
	}
	return log
}

func TestCascadeMatchesReferenceOrder(t *testing.T) {
	want := cascade(t, newRefExec)
	got := cascade(t, newPlaneExec)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("execution log diverged from the reference:\ngot  %v\nwant %v", got, want)
	}
}

// program decodes fuzz bytes into sends from random classes (at −0 and +0
// among others), engine events at the same instants, and horizons that
// slice the run, and returns the log of executing it. Data-plane handlers
// send on from inside, same-class sooner than a transit and cross-class
// at one or two; engine handlers send from the root class.
func program(t testing.TB, data []byte, newExec func(testing.TB, float64, int) executor) []string {
	const classes, transit, maxDepth = 6, 0.5, 3
	x := newExec(t, transit, classes)
	var log []string
	id := 0
	var handler func(cls, depth int) func(float64)
	handler = func(cls, depth int) func(float64) {
		me := id
		id++
		return func(now float64) {
			log = append(log, fmt.Sprintf("d%d c%d @%s", me, cls, stamp(now)))
			if depth >= maxDepth {
				return
			}
			x.send(cls, cls, now+float64(me%3)*transit/4, handler(cls, depth+1))
			if me%2 == 0 {
				dst := (cls + 1 + me%(classes-1)) % classes
				x.send(cls, dst, now+transit*float64(1+me%2), handler(dst, depth+1))
			}
		}
	}
	at := func(b byte) float64 { return float64(b%12) * transit / 2 }
	horizon := 0.0 // the engine refuses events before its clock
	for len(data) >= 3 {
		op, a, b := data[0], data[1], data[2]
		data = data[3:]
		switch op % 4 {
		case 0:
			src, dst := int(a)%classes, int(b)%classes
			x.send(src, dst, at(a/classes), handler(dst, 0))
		case 1:
			dst := int(b) % classes
			x.control(math.Max(at(a), horizon), func(now float64) {
				log = append(log, fmt.Sprintf("control @%s", stamp(now)))
				x.send(0, dst, now+float64(b%2)*transit/4, handler(dst, 1))
			})
		case 2:
			horizon = math.Max(horizon, at(a))
			x.advance(at(a))
			log = append(log, fmt.Sprintf("advance %s: %d pending", stamp(at(a)), x.pending()))
		case 3:
			z := 0.0
			if a%2 == 1 {
				z = math.Copysign(0, -1)
			}
			dst := int(b) % classes
			x.send(int(a/2)%classes, dst, z, handler(dst, 0))
		}
	}
	x.advance(math.Inf(1))
	log = append(log, fmt.Sprintf("end: %d pending", x.pending()))
	return log
}

func FuzzClassQueueOrder(f *testing.F) {
	f.Add([]byte{0, 7, 3, 1, 2, 4, 0, 8, 1, 3, 1, 2, 3, 0, 5, 2, 3, 0, 1, 6, 1})
	f.Add([]byte{3, 0, 1, 3, 1, 2, 3, 2, 3, 1, 0, 0, 0, 13, 4, 2, 1, 0})
	f.Add([]byte{1, 4, 1, 0, 24, 2, 0, 30, 5, 2, 2, 0, 1, 4, 3, 0, 4, 4, 2, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 300 {
			data = data[:300]
		}
		want := program(t, data, newRefExec)
		got := program(t, data, newPlaneExec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("execution log diverged from the reference:\ngot  %v\nwant %v", got, want)
		}
	})
}

func TestAdvanceRunsDataBeforeControlAtEqualTimes(t *testing.T) {
	p, err := New(0.001, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	var order []string
	eng.At(0.5, func(float64) { order = append(order, "control") })
	p.Schedule(1, 1, 0.5, sim.Event(func(float64) { order = append(order, "data") }))
	p.Advance(eng, 1)
	want := []string{"data", "control"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if eng.Now() != 1 {
		t.Fatalf("clock = %v, want 1", eng.Now())
	}
}

func TestAdvanceHonorsHorizon(t *testing.T) {
	p, err := New(0.001, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	fired := 0
	p.Schedule(0, 0, 0.5, sim.Event(func(float64) { fired++ }))
	p.Schedule(1, 1, 2.0, sim.Event(func(float64) { fired++ }))
	p.Advance(eng, 1)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (event beyond horizon ran)", fired)
	}
	if at, ok := p.NextEventTime(); !ok || at != 2.0 {
		t.Fatalf("NextEventTime = %v, %v; want 2.0, true", at, ok)
	}
	p.Advance(eng, 3)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if got := p.Fired(); got != 2 {
		t.Fatalf("Fired() = %d, want 2", got)
	}
}

// TestScheduleUnderTransitPanicsCrossClass pins the transit rule: while a
// data-plane event fires, a same-class send may land at any time, a
// cross-class one no sooner than one transit later; sends from engine
// events are not bounded.
func TestScheduleUnderTransitPanicsCrossClass(t *testing.T) {
	p, err := New(0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	nop := sim.Event(func(float64) {})
	var r interface{}
	eng.At(0.25, func(now float64) { p.Schedule(0, 1, now, nop) }) // unbounded
	p.Schedule(0, 0, 0.5, sim.Event(func(now float64) {
		p.Schedule(0, 0, now+0.001, nop) // same class: fine under the transit
		p.Schedule(0, 1, now+0.01, nop)  // cross class at one transit: fine
		defer func() { r = recover() }()
		p.Schedule(0, 1, now+0.001, nop) // cross class under the transit
	}))
	p.Advance(eng, 1)
	if r == nil {
		t.Fatal("cross-class send under the transit did not panic")
	}
	if got := p.Fired(); got != 4 {
		t.Fatalf("Fired() = %d, want 4", got)
	}
}
