package sim

import (
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

// TestHeapMatchesSortedReference drives random interleavings of At, Step
// and Cancel against a sorted slice keyed (at, seq), asserting the pop
// order and Pending after every operation. Cancels aim at the slots where
// hand-written heaps break: the root, the last slot (removal without a
// sift), a random interior slot (swap with the last, then sift either
// way), a handle that already fired and a handle whose pooled struct now
// carries another event. Fire times sit on a coarse grid so ties — and
// with them the seq tie-break — are common.
func TestHeapMatchesSortedReference(t *testing.T) {
	var cases struct{ root, last, interior, fired, reused int }
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ref []refEvent     // pending, sorted by (at, id)
		var dead []EventHandle // fired or cancelled
		var got []int
		next := 0
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(20); {
			case r < 9:
				id := next
				next++
				at := e.Now() + float64(rng.Intn(16))*0.25
				h := e.At(at, func(float64) { got = append(got, id) })
				i := sort.Search(len(ref), func(i int) bool {
					return ref[i].at > at || (ref[i].at == at && ref[i].id > id)
				})
				ref = append(ref, refEvent{})
				copy(ref[i+1:], ref[i:])
				ref[i] = refEvent{at: at, id: id, h: h}
			case r < 15:
				got = got[:0]
				if len(ref) == 0 {
					if e.Step() {
						t.Fatalf("seed %d op %d: Step on an empty queue fired", seed, op)
					}
					break
				}
				want := ref[0]
				ref = ref[1:]
				if !e.Step() || len(got) != 1 || got[0] != want.id || e.Now() != want.at {
					t.Fatalf("seed %d op %d: fired %v at %v, want [%d] at %v",
						seed, op, got, e.Now(), want.id, want.at)
				}
				dead = append(dead, want.h)
			case r < 19:
				if len(ref) == 0 {
					break
				}
				i := 0 // the root
				switch r {
				case 15:
					cases.root++
				case 16:
					i = refIndexOf(t, ref, e.queue[len(e.queue)-1])
					cases.last++
				default:
					i = rng.Intn(len(ref))
					cases.interior++
				}
				if !ref[i].h.Cancel() {
					t.Fatalf("seed %d op %d: Cancel of pending event %d reported false", seed, op, ref[i].id)
				}
				dead = append(dead, ref[i].h)
				ref = append(ref[:i], ref[i+1:]...)
			default:
				if len(dead) == 0 {
					break
				}
				h := dead[rng.Intn(len(dead))]
				if h.ev.seq == h.seq {
					cases.fired++
				} else {
					cases.reused++
				}
				if h.Cancel() {
					t.Fatalf("seed %d op %d: Cancel of a fired or cancelled handle reported true", seed, op)
				}
			}
			if e.Pending() != len(ref) {
				t.Fatalf("seed %d op %d: Pending() = %d, want %d", seed, op, e.Pending(), len(ref))
			}
			checkHeap(t, e)
		}
		// Drain: the rest pops in model order.
		for _, want := range ref {
			got = got[:0]
			if !e.Step() || len(got) != 1 || got[0] != want.id {
				t.Fatalf("seed %d drain: fired %v, want [%d]", seed, got, want.id)
			}
		}
		if e.Pending() != 0 || e.Step() {
			t.Fatalf("seed %d: queue not empty after the drain", seed)
		}
	}
	if cases.root == 0 || cases.last == 0 || cases.interior == 0 || cases.fired == 0 || cases.reused == 0 {
		t.Fatalf("a cancel case was never exercised: %+v", cases)
	}
}

// refIndexOf finds the model entry of a queued event struct.
func refIndexOf(t *testing.T, ref []refEvent, ev *scheduledEvent) int {
	t.Helper()
	for i, r := range ref {
		if r.h.ev == ev && r.h.seq == ev.seq {
			return i
		}
	}
	t.Fatalf("queued event seq %d missing from the model", ev.seq)
	return -1
}

// checkHeap asserts the queue's structural invariants: every event knows
// its slot, and no event precedes its parent.
func checkHeap(t *testing.T, e *Engine) {
	t.Helper()
	for i, ev := range e.queue {
		if ev.index != i {
			t.Fatalf("slot %d holds an event indexed %d", i, ev.index)
		}
		if p := (i - 1) / arity; i > 0 && ev.before(e.queue[p]) {
			t.Fatalf("slot %d precedes its parent slot %d", i, p)
		}
	}
}
