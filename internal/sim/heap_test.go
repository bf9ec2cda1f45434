package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refEvent is one pending event of the sorted-slice model.
type refEvent struct {
	at float64
	id int // scheduling order, the model's seq
	h  EventHandle
}

// refModel is the queue's specification: pending events sorted by (at,
// id), popped from the front.
type refModel struct {
	pending []refEvent
	next    int
}

// add inserts the next id at time at, with the handle h returns for
// scheduling that id on the engine.
func (m *refModel) add(at float64, h func(id int) EventHandle) {
	id := m.next
	m.next++
	ev := refEvent{at: at, id: id, h: h(id)}
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.at > at || (p.at == at && p.id > id)
	})
	m.pending = append(m.pending, refEvent{})
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = ev
}

// indexOfKey finds the pending model entry whose handle carries key.
func (m *refModel) indexOfKey(t *testing.T, key uint64) int {
	t.Helper()
	for i, r := range m.pending {
		if r.h.key == key {
			return i
		}
	}
	t.Fatalf("queued key %#x missing from the model", key)
	return -1
}

// lastLive returns the heap position of the last entry that is not
// cancelled; the queue must hold one.
func lastLive(e *Engine) int {
	for i := e.n - 1; ; i-- {
		if k := e.q[i].key; e.slots[k&slotMask].key == k {
			return i
		}
	}
}

// TestHeapMatchesSortedReference drives random interleavings of At, Step
// and Cancel against a sorted slice keyed (at, seq), asserting the pop
// order, PeekNextTime and Pending after every operation. Cancels aim at
// the entries where a heap with lazy cancel breaks: the head (dropped by
// the next Step or PeekNextTime), the live entry nearest the heap's end,
// a random interior one, the same handle twice, a handle that already
// fired or was cancelled, and a handle whose slot now holds a later
// event. Fire times sit on a coarse grid so ties — and with them the seq
// tie-break — are common.
func TestHeapMatchesSortedReference(t *testing.T) {
	var cases struct{ head, last, interior, double, fired, reused, lazy int }
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ref refModel
		var dead []EventHandle // fired or cancelled
		var got []int
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(21); {
			case r < 9:
				at := e.Now() + float64(rng.Intn(16))*0.25
				ref.add(at, func(id int) EventHandle {
					return e.At(at, func(float64) { got = append(got, id) })
				})
			case r < 15:
				got = got[:0]
				if len(ref.pending) == 0 {
					if e.Step() {
						t.Fatalf("seed %d op %d: Step on an empty queue fired", seed, op)
					}
					break
				}
				want := ref.pending[0]
				ref.pending = ref.pending[1:]
				if !e.Step() || len(got) != 1 || got[0] != want.id || e.Now() != want.at {
					t.Fatalf("seed %d op %d: fired %v at %v, want [%d] at %v",
						seed, op, got, e.Now(), want.id, want.at)
				}
				dead = append(dead, want.h)
			case r < 20:
				if len(ref.pending) == 0 {
					break
				}
				i := 0 // the model's head
				switch r {
				case 15, 16:
					cases.head++
				case 17:
					i = ref.indexOfKey(t, e.q[lastLive(e)].key)
					cases.last++
				default:
					i = rng.Intn(len(ref.pending))
					cases.interior++
				}
				h := ref.pending[i].h
				if !h.Cancel() {
					t.Fatalf("seed %d op %d: Cancel of pending event %d reported false", seed, op, ref.pending[i].id)
				}
				if r == 16 {
					cases.double++
					if h.Cancel() {
						t.Fatalf("seed %d op %d: second Cancel reported true", seed, op)
					}
				}
				dead = append(dead, h)
				ref.pending = append(ref.pending[:i], ref.pending[i+1:]...)
			default:
				if len(dead) == 0 {
					break
				}
				h := dead[rng.Intn(len(dead))]
				if k := e.slots[h.key&slotMask].key; k >= 1<<slotBits && k != h.key {
					cases.reused++
				} else {
					cases.fired++
				}
				if h.Cancel() {
					t.Fatalf("seed %d op %d: Cancel of a fired or cancelled handle reported true", seed, op)
				}
			}
			if e.cancelled > 0 {
				cases.lazy++
			}
			if e.Pending() != len(ref.pending) {
				t.Fatalf("seed %d op %d: Pending() = %d, want %d", seed, op, e.Pending(), len(ref.pending))
			}
			checkHeap(t, e)
			if rng.Intn(4) == 0 {
				next, ok := e.PeekNextTime()
				if ok != (len(ref.pending) > 0) || (ok && next != ref.pending[0].at) {
					t.Fatalf("seed %d op %d: PeekNextTime = %v, %v; model %v", seed, op, next, ok, ref.pending)
				}
				checkHeap(t, e)
			}
		}
		// Drain: the rest pops in model order.
		for _, want := range ref.pending {
			got = got[:0]
			if !e.Step() || len(got) != 1 || got[0] != want.id {
				t.Fatalf("seed %d drain: fired %v, want [%d]", seed, got, want.id)
			}
		}
		if e.Pending() != 0 || e.Step() || e.n != 0 || e.cancelled != 0 {
			t.Fatalf("seed %d: queue not empty after the drain", seed)
		}
		checkHeap(t, e)
	}
	if cases.head == 0 || cases.last == 0 || cases.interior == 0 || cases.double == 0 ||
		cases.fired == 0 || cases.reused == 0 || cases.lazy == 0 {
		t.Fatalf("a cancel case was never exercised: %+v", cases)
	}
}

// checkHeap asserts the queue's structural invariants: no entry precedes
// its parent, sentinels pad the heap, every queued entry's slot holds its
// key or a cancelled mark, the cancelled count matches, and the free list
// reaches exactly the slots no entry holds.
func checkHeap(t *testing.T, e *Engine) {
	t.Helper()
	if len(e.q) < e.n+arity-1 {
		t.Fatalf("heap of %d entries padded to only %d", e.n, len(e.q))
	}
	for i, x := range e.q[e.n:] {
		if x != sentinel {
			t.Fatalf("position %d past the heap's end holds %+v", e.n+i, x)
		}
	}
	held := make([]bool, len(e.slots))
	cancelled := 0
	for i, x := range e.q[:e.n] {
		if p := (i - 1) / arity; i > 0 && lessBit(&x, &e.q[p]) == 1 {
			t.Fatalf("position %d precedes its parent %d", i, p)
		}
		s := x.key & slotMask
		if held[s] {
			t.Fatalf("slot %d held by two entries", s)
		}
		held[s] = true
		switch e.slots[s].key {
		case x.key:
		case 0:
			cancelled++
		default:
			t.Fatalf("entry %#x's slot holds key %#x", x.key, e.slots[s].key)
		}
	}
	if cancelled != e.cancelled {
		t.Fatalf("%d cancelled entries queued, engine counts %d", cancelled, e.cancelled)
	}
	free := 0
	for i := e.free; i != uint64(len(e.slots)); i = e.slots[i].key {
		if i > uint64(len(e.slots)) || held[i] || free > len(e.slots) {
			t.Fatalf("free list reaches slot %d (held %v) after %d links", i, i < uint64(len(held)) && held[i], free)
		}
		free++
	}
	if free+e.n != len(e.slots) {
		t.Fatalf("%d free slots and %d entries, %d slots", free, e.n, len(e.slots))
	}
}

// TestTimeKeyOrder checks timeKey against <: ascending finite times,
// negative ones, subnormals and the extremes included, map to ascending
// keys, −0 and +0 to the same key, and timeOf inverts the map (−0 comes
// back as +0). On the queue, a −0 event ties with a +0 one and fires in
// scheduling order.
func TestTimeKeyOrder(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	ascending := []float64{
		-math.MaxFloat64, -1e300, -1, -0x1p-1022, -2 * sub, -sub,
		0, sub, 2 * sub, 0x1p-1022 - sub, 0x1p-1022, 1e-300, 0.5, 1,
		1 + 0x1p-52, 2, 1e300, math.Nextafter(math.MaxFloat64, 0), math.MaxFloat64,
	}
	for i, x := range ascending {
		if got := timeOf(timeKey(x)); math.Float64bits(got) != math.Float64bits(x) {
			t.Fatalf("timeOf(timeKey(%v)) = %v", x, got)
		}
		if i > 0 && timeKey(ascending[i-1]) >= timeKey(x) {
			t.Fatalf("timeKey(%v) = %#x not below timeKey(%v) = %#x",
				ascending[i-1], timeKey(ascending[i-1]), x, timeKey(x))
		}
	}
	negZero := math.Copysign(0, -1)
	if timeKey(negZero) != timeKey(0) {
		t.Fatalf("timeKey(−0) = %#x, timeKey(+0) = %#x", timeKey(negZero), timeKey(0))
	}
	if got := timeOf(timeKey(negZero)); math.Signbit(got) {
		t.Fatal("−0 not normalised to +0")
	}
	if timeKey(math.MaxFloat64) >= sentinel.at {
		t.Fatal("the sentinel does not order after MaxFloat64")
	}
	rng := rand.New(rand.NewSource(1))
	finite := func() float64 {
		for {
			if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) && !math.IsInf(x, 0) {
				return x
			}
		}
	}
	for range 100000 {
		a, b := finite(), finite()
		if (a < b) != (timeKey(a) < timeKey(b)) || (a == b) != (timeKey(a) == timeKey(b)) {
			t.Fatalf("timeKey orders %v and %v unlike <", a, b)
		}
	}

	for _, first := range []float64{0, negZero} {
		e := NewEngine()
		var order []int
		e.At(first, func(float64) { order = append(order, 0) })
		e.At(-first, func(float64) { order = append(order, 1) })
		e.At(0, func(float64) { order = append(order, 2) })
		e.RunUntilEmpty()
		if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
			t.Fatalf("first at %v: fire order %v, want [0 1 2]", first, order)
		}
	}
}

// FuzzEngineOrder runs a byte-coded program of At, Step, Cancel,
// PeekNextTime and Run against the sorted (at, seq) model. Each byte is
// one operation, up to 512; fire times sit on a grid of quarter seconds,
// with −0 among them, so ties are common.
//
//	go test -run '^$' -fuzz '^FuzzEngineOrder$' -fuzztime 10s ./internal/sim/
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 64, 65, 128, 192, 129, 130, 200, 66})
	f.Add([]byte{5, 5, 5, 5, 133, 133, 160, 161, 162, 64, 64, 64, 64})
	f.Add([]byte{7, 15, 23, 31, 39, 47, 55, 63, 96, 97, 98, 99, 250, 251, 64})
	f.Fuzz(func(t *testing.T, prog []byte) {
		prog = prog[:min(len(prog), 512)] // checkHeap after every op is linear
		e := NewEngine()
		var ref refModel
		var handles []EventHandle
		var got []int
		fire := func(want refEvent) {
			got = got[:0]
			if !e.Step() || len(got) != 1 || got[0] != want.id || e.Now() != want.at {
				t.Fatalf("fired %v at %v, want [%d] at %v", got, e.Now(), want.id, want.at)
			}
		}
		for _, b := range prog {
			arg := int(b & 63)
			switch b >> 6 {
			case 0: // schedule
				at := e.Now() + float64(arg%16)*0.25
				if arg == 0 && e.Now() == 0 {
					at = math.Copysign(0, -1)
				}
				ref.add(at, func(id int) EventHandle {
					h := e.At(at, func(float64) { got = append(got, id) })
					handles = append(handles, h)
					return h
				})
			case 1: // step
				if len(ref.pending) == 0 {
					if e.Step() {
						t.Fatal("Step on an empty queue fired")
					}
					break
				}
				fire(ref.pending[0])
				ref.pending = ref.pending[1:]
			case 2: // cancel any handle ever issued
				if len(handles) == 0 {
					break
				}
				h := handles[arg%len(handles)]
				i := 0
				for i < len(ref.pending) && ref.pending[i].h != h {
					i++
				}
				live := i < len(ref.pending)
				if h.Cancel() != live {
					t.Fatalf("Cancel reported %v for a handle live=%v", !live, live)
				}
				if live {
					ref.pending = append(ref.pending[:i], ref.pending[i+1:]...)
				}
			default: // peek, or run to a horizon
				if arg < 32 {
					next, ok := e.PeekNextTime()
					if ok != (len(ref.pending) > 0) || (ok && next != ref.pending[0].at) {
						t.Fatalf("PeekNextTime = %v, %v; model %v", next, ok, ref.pending)
					}
					break
				}
				horizon := e.Now() + float64(arg-32)*0.125
				var want []int
				for len(ref.pending) > 0 && ref.pending[0].at <= horizon {
					want = append(want, ref.pending[0].id)
					ref.pending = ref.pending[1:]
				}
				got = got[:0]
				e.Run(horizon)
				if len(got) != len(want) {
					t.Fatalf("Run(%v) fired %v, want %v", horizon, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("Run(%v) fired %v, want %v", horizon, got, want)
					}
				}
			}
			if e.Pending() != len(ref.pending) {
				t.Fatalf("Pending() = %d, want %d", e.Pending(), len(ref.pending))
			}
			checkHeap(t, e)
		}
		for len(ref.pending) > 0 {
			fire(ref.pending[0])
			ref.pending = ref.pending[1:]
		}
		if e.Pending() != 0 || e.Step() {
			t.Fatal("queue not empty after the drain")
		}
	})
}

// BenchmarkEngineStep times one Step and one At on a queue held at a
// fixed depth: 95 and 291 are the largest pending counts of the
// redundancy-cancel and pcs-control benchmark workloads. It allocates
// nothing per operation.
func BenchmarkEngineStep(b *testing.B) {
	for _, depth := range []int{95, 291} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			delays := make([]float64, 1024)
			for i := range delays {
				delays[i] = rng.Float64()
			}
			e := NewEngine()
			nop := Event(func(float64) {})
			for i := 0; i < depth; i++ {
				e.At(delays[i%len(delays)], nop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
				e.At(e.Now()+delays[i%len(delays)], nop)
			}
		})
	}
}
