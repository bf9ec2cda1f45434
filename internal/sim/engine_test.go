package sim

import (
	"math"
	"testing"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3, func(float64) { order = append(order, 3) })
	e.At(1, func(float64) { order = append(order, 1) })
	e.At(2, func(float64) { order = append(order, 2) })
	e.RunUntilEmpty()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(float64) { order = append(order, i) })
	}
	e.RunUntilEmpty()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	e := NewEngine()
	var at float64
	e.At(2.5, func(now float64) { at = now })
	e.RunUntilEmpty()
	if at != 2.5 {
		t.Fatalf("callback saw now=%v", at)
	}
	if e.Now() != 2.5 {
		t.Fatalf("engine now=%v", e.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.At(1, func(now float64) {
		e.After(2, func(now2 float64) { times = append(times, now2) })
	})
	e.RunUntilEmpty()
	if len(times) != 1 || times[0] != 3 {
		t.Fatalf("After fired at %v, want [3]", times)
	}
}

func TestHorizonStopsEarly(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(10, func(float64) { fired = true })
	end := e.Run(5)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if end != 5 || e.Now() != 5 {
		t.Fatalf("clock = %v, want 5", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	// A later Run picks the event up.
	e.Run(20)
	if !fired {
		t.Fatal("event not fired after extending horizon")
	}
}

func TestRunAdvancesClockToHorizonWhenQueueDrains(t *testing.T) {
	e := NewEngine()
	e.At(1, func(float64) {})
	if end := e.Run(100); end != 100 {
		t.Fatalf("end = %v, want 100", end)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func(float64) { count++; e.Stop() })
	e.At(2, func(float64) { count++ })
	e.Run(10)
	if count != 1 {
		t.Fatalf("count = %d, want 1 (stopped)", count)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(1, func(float64) { fired = true })
	if !h.Cancel() {
		t.Fatal("first cancel should report true")
	}
	if h.Cancel() {
		t.Fatal("second cancel should report false")
	}
	e.RunUntilEmpty()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(1, func(float64) { order = append(order, 1) })
	h2 := e.At(2, func(float64) { order = append(order, 2) })
	e.At(3, func(float64) { order = append(order, 3) })
	h2.Cancel()
	e.RunUntilEmpty()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", order)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func(float64) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func(float64) {})
	})
	e.RunUntilEmpty()
}

func TestSchedulingNaNPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at NaN did not panic")
		}
	}()
	e.At(math.NaN(), func(float64) {})
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine()
	var times []float64
	tk := e.Every(2, func(now float64) { times = append(times, now) })
	e.Run(9)
	tk.Stop()
	want := []float64{2, 4, 6, 8}
	if len(times) != len(want) {
		t.Fatalf("ticker fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticker fired at %v, want %v", times, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.Every(1, func(float64) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run(100)
	if count != 3 {
		t.Fatalf("ticker fired %d times, want 3", count)
	}
}

func TestEveryAt(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.EveryAt(0.5, 1, func(now float64) { times = append(times, now) })
	e.Run(3)
	want := []float64{0.5, 1.5, 2.5}
	if len(times) != len(want) {
		t.Fatalf("fired at %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
}

func TestEveryPanicsOnBadPeriod(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	e.Every(0, func(float64) {})
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(float64(i), func(float64) {})
	}
	e.RunUntilEmpty()
	if e.Fired() != 5 {
		t.Fatalf("fired = %d, want 5", e.Fired())
	}
}

func TestNestedScheduling(t *testing.T) {
	// Events scheduled from inside events interleave correctly.
	e := NewEngine()
	var order []string
	e.At(1, func(float64) {
		order = append(order, "a")
		e.At(1.5, func(float64) { order = append(order, "b") })
	})
	e.At(2, func(float64) { order = append(order, "c") })
	e.RunUntilEmpty()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestManyEventsStress(t *testing.T) {
	e := NewEngine()
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		e.At(float64(i%100), func(float64) { count++ })
	}
	e.RunUntilEmpty()
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}

func TestSlotReuseKeepsStaleHandlesInert(t *testing.T) {
	// After an event fires its slot returns to the free list; a stale
	// handle must not cancel the slot's next occupant.
	e := NewEngine()
	h1 := e.At(1, func(float64) {})
	e.Run(2)
	fired := false
	h2 := e.At(3, func(float64) { fired = true })
	if h2.key&slotMask != h1.key&slotMask {
		t.Fatal("the fired event's slot was not reused")
	}
	if h1.Cancel() {
		t.Fatal("stale handle cancelled the slot's next event")
	}
	e.Run(4)
	if !fired {
		t.Fatal("the slot's next event did not fire")
	}
}

func TestStaleHandlesAcrossSlotGrowth(t *testing.T) {
	// The slot array starts at initialSlots and grows by append. Fire or
	// cancel more events than it starts with, refill the queue so the
	// next events reuse those slots and new ones alike, and check every
	// stale handle is inert while every live event still fires once.
	e := NewEngine()
	const n = initialSlots + initialSlots/2 + 5
	var stale []EventHandle
	for i := 0; i < n; i++ {
		h := e.At(float64(i), func(float64) {})
		if i%2 == 1 && !h.Cancel() {
			t.Fatalf("event %d: first cancel failed", i)
		}
		stale = append(stale, h)
	}
	e.RunUntilEmpty()
	if len(e.slots) != n {
		t.Fatalf("%d slots for %d queued events", len(e.slots), n)
	}
	fired := make([]int, 2*n)
	for i := range fired {
		e.At(e.Now()+float64(i), func(float64) { fired[i]++ })
	}
	for i, h := range stale {
		if h.Cancel() {
			t.Fatalf("stale handle %d cancelled a later event", i)
		}
	}
	e.RunUntilEmpty()
	for i, c := range fired {
		if c != 1 {
			t.Fatalf("event %d fired %d times, want 1", i, c)
		}
	}
}

func TestCancelledEventSlotIsRecycled(t *testing.T) {
	// A cancelled event keeps its slot until its entry reaches the head;
	// dropping it there frees the slot for the next event.
	e := NewEngine()
	h := e.At(5, func(float64) { t.Fatal("cancelled event fired") })
	if !h.Cancel() {
		t.Fatal("first cancel failed")
	}
	if h.Cancel() {
		t.Fatal("second cancel succeeded")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after the cancel, want 0", e.Pending())
	}
	count := 0
	e.At(1, func(float64) { count++ })
	e.RunUntilEmpty()
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	if e.n != 0 || e.cancelled != 0 || len(e.slots) != 2 {
		t.Fatalf("drained engine holds %d entries, %d cancelled, %d slots", e.n, e.cancelled, len(e.slots))
	}
	e.At(e.Now()+1, func(float64) { count++ })
	if len(e.slots) != 2 {
		t.Fatalf("a free slot was not reused: %d slots", len(e.slots))
	}
}

func TestHandleTimeSurvivesRecycling(t *testing.T) {
	e := NewEngine()
	h := e.At(2.5, func(float64) {})
	e.RunUntilEmpty()
	e.At(9, func(float64) {})
	if h.Time() != 2.5 {
		t.Fatalf("Time() = %v after recycling, want 2.5", h.Time())
	}
}

func TestPeekNextTime(t *testing.T) {
	e := NewEngine()
	if _, ok := e.PeekNextTime(); ok {
		t.Fatal("empty engine has a next event")
	}
	e.At(3, func(float64) {})
	e.At(1, func(float64) {})
	if next, ok := e.PeekNextTime(); !ok || next != 1 {
		t.Fatalf("PeekNextTime = %v, %v; want 1, true", next, ok)
	}
	if e.Now() != 0 {
		t.Fatal("peek advanced the clock")
	}
}

func TestStepExecutesOneEvent(t *testing.T) {
	e := NewEngine()
	var fired []float64
	e.At(1, func(now float64) { fired = append(fired, now) })
	e.At(2, func(now float64) { fired = append(fired, now) })
	if !e.Step() {
		t.Fatal("Step on non-empty queue returned false")
	}
	if len(fired) != 1 || fired[0] != 1 || e.Now() != 1 {
		t.Fatalf("after one step: fired=%v now=%v", fired, e.Now())
	}
	if !e.Step() {
		t.Fatal("second step returned false")
	}
	if e.Step() {
		t.Fatal("Step on drained queue returned true")
	}
	if len(fired) != 2 || e.Now() != 2 {
		t.Fatalf("after stepping dry: fired=%v now=%v", fired, e.Now())
	}
}

// TestStepLoopMatchesRun drives an identical schedule once with Run and
// once with the Peek/Step primitives, checking fire order, times and the
// fired counter all agree — the contract the steppable Simulation relies
// on.
func TestStepLoopMatchesRun(t *testing.T) {
	build := func(e *Engine, log *[]float64) {
		var reschedule func(now float64)
		reschedule = func(now float64) {
			*log = append(*log, now)
			if now < 5 {
				e.After(0.7, reschedule)
				e.After(1.3, func(at float64) { *log = append(*log, at) })
			}
		}
		e.At(0.5, reschedule)
		e.Every(1.1, func(now float64) { *log = append(*log, -now) })
	}

	ran := NewEngine()
	var ranLog []float64
	build(ran, &ranLog)
	ran.Run(8)

	stepped := NewEngine()
	var stepLog []float64
	build(stepped, &stepLog)
	for {
		next, ok := stepped.PeekNextTime()
		if !ok || next > 8 {
			break
		}
		stepped.Step()
	}

	if len(ranLog) != len(stepLog) {
		t.Fatalf("event counts differ: Run %d vs stepped %d", len(ranLog), len(stepLog))
	}
	for i := range ranLog {
		if ranLog[i] != stepLog[i] {
			t.Fatalf("event %d differs: Run %v vs stepped %v", i, ranLog[i], stepLog[i])
		}
	}
	if ran.Fired() != stepped.Fired() {
		t.Fatalf("fired counters differ: %d vs %d", ran.Fired(), stepped.Fired())
	}
}

// TestRunResumesAfterPartialRun checks that Run(h1) then Run(h2) executes
// the same events as a single Run(h2) — the property that lets
// Simulation.RunTo slice a run at arbitrary points.
func TestRunResumesAfterPartialRun(t *testing.T) {
	build := func(e *Engine, log *[]float64) {
		for i := 1; i <= 10; i++ {
			at := float64(i) * 0.9
			e.At(at, func(now float64) { *log = append(*log, now) })
		}
	}
	whole := NewEngine()
	var wholeLog []float64
	build(whole, &wholeLog)
	whole.Run(9)

	sliced := NewEngine()
	var slicedLog []float64
	build(sliced, &slicedLog)
	for _, h := range []float64{1.0, 2.5, 2.5, 6.0, 9} {
		sliced.Run(h)
	}
	if sliced.Now() != whole.Now() {
		t.Fatalf("clocks differ: %v vs %v", sliced.Now(), whole.Now())
	}
	if len(wholeLog) != len(slicedLog) {
		t.Fatalf("event counts differ: %d vs %d", len(wholeLog), len(slicedLog))
	}
	for i := range wholeLog {
		if wholeLog[i] != slicedLog[i] {
			t.Fatalf("event %d differs: %v vs %v", i, wholeLog[i], slicedLog[i])
		}
	}
}

func TestSequenceExhaustionPanics(t *testing.T) {
	// The key's 40-bit sequence number must not wrap: a wrapped seq
	// would break the FIFO tie-break and alias stale handles.
	e := NewEngine()
	e.seq = maxSeq - 1
	e.At(1, func(float64) {}) // the last sequence number
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling past the last sequence number did not panic")
		}
	}()
	e.At(2, func(float64) {})
}

// TestEngineFootprint pins what a run's engine allocates: at most the
// engine, its heap and its slot array, and nothing per event while no
// more than 253 events are queued.
func TestEngineFootprint(t *testing.T) {
	nop := Event(func(float64) {})
	run := func(events int) float64 {
		return testing.AllocsPerRun(20, func() {
			e := NewEngine()
			for i := 0; i < events; i++ {
				e.At(float64(i%7), nop)
			}
			e.RunUntilEmpty()
		})
	}
	one, full := run(1), run(253)
	if one > 3 || full != one {
		t.Fatalf("an engine allocates %v objects with 1 event and %v with 253, want at most 3 either way", one, full)
	}
}
