package lane

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/shard"
	"repro/internal/sim"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0.1, 4, nil); err == nil {
		t.Error("0 lanes accepted")
	}
	if _, err := New(2, 0, 4, nil); err == nil {
		t.Error("zero lookahead accepted")
	}
	if _, err := New(2, -1, 4, nil); err == nil {
		t.Error("negative lookahead accepted")
	}
	if _, err := New(2, 0.1, 0, nil); err == nil {
		t.Error("0 classes accepted")
	}
	if _, err := New(2, 0.1, 4, nil); err != nil {
		t.Errorf("valid plane rejected: %v", err)
	}
}

func TestHeapPopsInKeyOrder(t *testing.T) {
	ls := &laneState{}
	// Push in scrambled order; pops must come out sorted by
	// (at, src, seq) regardless.
	evs := []event{
		{at: 2, src: 0, seq: 0},
		{at: 1, src: 1, seq: 5},
		{at: 1, src: 0, seq: 9},
		{at: 1, src: 1, seq: 2},
		{at: 3, src: 2, seq: 0},
		{at: 1, src: 0, seq: 1},
	}
	for _, ev := range evs {
		ls.push(ev)
	}
	want := []event{
		{at: 1, src: 0, seq: 1},
		{at: 1, src: 0, seq: 9},
		{at: 1, src: 1, seq: 2},
		{at: 1, src: 1, seq: 5},
		{at: 2, src: 0, seq: 0},
		{at: 3, src: 2, seq: 0},
	}
	for i, w := range want {
		got := ls.pop()
		if got.at != w.at || got.src != w.src || got.seq != w.seq {
			t.Fatalf("pop %d = (%v,%d,%d), want (%v,%d,%d)",
				i, got.at, got.src, got.seq, w.at, w.src, w.seq)
		}
	}
}

// cascade schedules a deterministic message storm across classes and
// returns the per-class execution log: each class relays work to the next
// class (cross-class, one lookahead later) and to itself (same-class,
// arbitrarily soon), so the log exercises windows, run-ahead and outbox
// folding together.
func cascade(t *testing.T, lanes int, pool *shard.Pool) map[int][]string {
	t.Helper()
	const classes, depth = 5, 6
	const la = 0.001
	p, err := New(lanes, la, classes, pool)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	log := make(map[int][]string)
	var relay func(cls, d int) sim.Event
	relay = func(cls, d int) sim.Event {
		return func(now float64) {
			log[cls] = append(log[cls], fmt.Sprintf("%d@%.6f", d, now))
			if d >= depth {
				return
			}
			next := (cls + 1) % classes
			p.Schedule(cls, next, now+la, relay(next, d+1))
			// Same-class follow-up well inside the lookahead: exercises
			// in-window run-ahead.
			p.Schedule(cls, cls, now+la/7, relay(cls, d+1))
		}
	}
	for c := 0; c < classes; c++ {
		p.Schedule(c, c, 0.01*float64(c+1), relay(c, 0))
	}
	p.Advance(eng, 1)
	if p.Pending() != 0 {
		t.Fatalf("lanes=%d: %d events left pending", lanes, p.Pending())
	}
	return log
}

func TestCascadeIdenticalAtAnyLaneCount(t *testing.T) {
	pool := shard.NewPool(4)
	defer pool.Close()
	want := cascade(t, 1, nil)
	for _, lanes := range []int{2, 3, 4} {
		got := cascade(t, lanes, pool)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lanes=%d: per-class execution log diverged from lanes=1", lanes)
		}
	}
}

func TestAdvanceRunsDataBeforeControlAtEqualTimes(t *testing.T) {
	p, err := New(2, 0.001, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	var order []string
	eng.At(0.5, func(float64) { order = append(order, "control") })
	p.Schedule(0, 0, 0.5, sim.Event(func(float64) { order = append(order, "data") }))
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
	p, err := New(2, 0.001, 2, nil)
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

func TestScheduleUnderLookaheadPanicsInWindow(t *testing.T) {
	pool := shard.NewPool(2)
	defer pool.Close()
	p, err := New(2, 0.01, 2, pool)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	panicked := make(chan interface{}, 1)
	// Two lanes must be active so the window takes the pooled path where
	// the outbox validates the conservative bound.
	p.Schedule(1, 1, 0.5, sim.Event(func(float64) {}))
	p.Schedule(0, 0, 0.5, sim.Event(func(now float64) {
		defer func() { panicked <- recover() }()
		p.Schedule(0, 1, now+0.001, sim.Event(func(float64) {})) // under the 0.01 lookahead
	}))
	p.Advance(eng, 1)
	if r := <-panicked; r == nil {
		t.Fatal("cross-lane send under the lookahead did not panic")
	}
}
