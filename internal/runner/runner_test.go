package runner

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// jobValue is a deterministic function of (rep, seed) so result slices can
// be compared across worker counts.
func jobValue(rep int, seed int64) float64 {
	src := xrand.New(seed)
	return float64(rep) + src.Float64()
}

func TestRunIdenticalAcrossWorkerCounts(t *testing.T) {
	const root, n = 42, 37
	var want []float64
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, err := Run(root, n, Options{Workers: workers}, func(rep int, seed int64) (float64, error) {
			return jobValue(rep, seed), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), n)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunStreamZeroIsRootSeed(t *testing.T) {
	seeds, err := Run(7, 3, Options{Workers: 1}, func(rep int, seed int64) (int64, error) {
		return seed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seeds[0] != 7 {
		t.Fatalf("replication 0 seed = %d, want the root seed 7", seeds[0])
	}
	if seeds[1] == seeds[0] || seeds[2] == seeds[1] || seeds[2] == seeds[0] {
		t.Fatalf("replication seeds collide: %v", seeds)
	}
}

func TestRunMergeMatchesSerialReference(t *testing.T) {
	// A parallel run's merged statistics must equal a plain serial loop
	// folding the same observations in replication order.
	const root, n = 9, 24
	results, err := Run(root, n, Options{Workers: 6}, func(rep int, seed int64) (float64, error) {
		return jobValue(rep, seed), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var merged stats.Welford
	merged.AddAll(results)

	var ref stats.Welford
	for rep := 0; rep < n; rep++ {
		v := jobValue(rep, xrand.StreamSeed(root, rep))
		if results[rep] != v {
			t.Fatalf("replication %d: %v, serial reference %v", rep, results[rep], v)
		}
		ref.Add(v)
	}
	if merged.N() != ref.N() || merged.Mean() != ref.Mean() || merged.Variance() != ref.Variance() {
		t.Fatalf("merged stats differ: mean %v vs %v, var %v vs %v",
			merged.Mean(), ref.Mean(), merged.Variance(), ref.Variance())
	}
}

func TestRunErrorReportsLowestFailedReplication(t *testing.T) {
	errBoom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Run(1, 16, Options{Workers: workers}, func(rep int, seed int64) (int, error) {
			if rep%5 == 3 { // replications 3, 8, 13 fail
				return 0, fmt.Errorf("rep %d: %w", rep, errBoom)
			}
			return rep, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: error chain lost: %v", workers, err)
		}
	}
}

func TestRunRejectsNonPositiveN(t *testing.T) {
	if _, err := Run(1, 0, Options{}, func(int, int64) (int, error) { return 0, nil }); err == nil {
		t.Fatal("n=0 should error")
	}
}

func TestRunActuallyRunsConcurrently(t *testing.T) {
	// With more workers than GOMAXPROCS=1 would suggest, replications must
	// still all execute exactly once.
	var calls atomic.Int64
	res, err := Run(3, 50, Options{Workers: 8}, func(rep int, seed int64) (int, error) {
		calls.Add(1)
		return rep, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 50 {
		t.Fatalf("job ran %d times, want 50", calls.Load())
	}
	for i, v := range res {
		if v != i {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

func TestStreamDeliversInOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var got []int
		err := Stream(42, 50, Options{Workers: workers},
			func(rep int, seed int64) (int, error) {
				// Finish in scrambled order: later replications sleep less.
				time.Sleep(time.Duration((rep%7)*100) * time.Microsecond)
				return rep * 10, nil
			},
			func(rep int, res int) error {
				got = append(got, res)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: emitted %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*10 {
				t.Fatalf("workers=%d: out of order at %d: %d", workers, i, v)
			}
		}
	}
}

func TestStreamMatchesRunSeeds(t *testing.T) {
	runRes, err := Run(7, 12, Options{Workers: 4}, func(rep int, seed int64) (int64, error) {
		return seed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var streamRes []int64
	if err := Stream(7, 12, Options{Workers: 4}, func(rep int, seed int64) (int64, error) {
		return seed, nil
	}, func(rep int, seed int64) error {
		streamRes = append(streamRes, seed)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runRes, streamRes) {
		t.Fatalf("Stream seeds differ from Run:\n%v\n%v", runRes, streamRes)
	}
}

func TestStreamJobError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		emitted := 0
		err := Stream(1, 20, Options{Workers: workers},
			func(rep int, seed int64) (int, error) {
				if rep == 5 {
					return 0, boom
				}
				return rep, nil
			},
			func(rep int, res int) error {
				emitted++
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if emitted > 20 {
			t.Fatalf("workers=%d: emitted %d", workers, emitted)
		}
	}
}

func TestStreamEmitError(t *testing.T) {
	stopErr := errors.New("sink full")
	err := Stream(1, 30, Options{Workers: 4},
		func(rep int, seed int64) (int, error) { return rep, nil },
		func(rep int, res int) error {
			if rep == 3 {
				return stopErr
			}
			return nil
		})
	if !errors.Is(err, stopErr) {
		t.Fatalf("err = %v, want sink error unwrapped", err)
	}
}

func TestStreamRejectsZeroReplications(t *testing.T) {
	err := Stream(1, 0, Options{}, func(int, int64) (int, error) { return 0, nil },
		func(int, int) error { return nil })
	if err == nil {
		t.Fatal("Stream accepted n=0")
	}
}

func TestStreamClaimWindowBounded(t *testing.T) {
	// Replication 0 is much slower than its peers: the pool must not run
	// arbitrarily far ahead of the oldest unemitted replication, or the
	// reorder buffer grows O(n) and the streaming memory contract is void.
	const workers = 4
	var emitted atomic.Int64
	maxAhead := int64(0)
	var mu sync.Mutex
	err := Stream(3, 200, Options{Workers: workers},
		func(rep int, seed int64) (int, error) {
			ahead := int64(rep) - emitted.Load()
			mu.Lock()
			if ahead > maxAhead {
				maxAhead = ahead
			}
			mu.Unlock()
			if rep == 0 {
				time.Sleep(30 * time.Millisecond)
			}
			return rep, nil
		},
		func(rep int, res int) error {
			emitted.Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// The claim window is 2×workers; allow slack for claims racing emits.
	if limit := int64(3 * workers); maxAhead > limit {
		t.Fatalf("pool ran %d replications ahead of the emitter (window should cap near %d)",
			maxAhead, 2*workers)
	}
}

// TestStreamPanicFailsItsReplication: a job that panics at replication 2
// of 6 becomes that replication's error — naming the replication, the
// panic value and the stack — on the serial and the pooled path alike,
// and no worker goroutine outlives the call.
func TestStreamPanicFailsItsReplication(t *testing.T) {
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		err := Stream(1, 6, Options{Workers: workers},
			func(rep int, seed int64) (int, error) {
				if rep == 2 {
					panic("scheduled in the past")
				}
				return rep, nil
			},
			func(int, int) error { return nil })
		if err == nil {
			t.Fatalf("workers=%d: panicking replication reported no error", workers)
		}
		msg := err.Error()
		for _, want := range []string{"runner: replication 2: panic: scheduled in the past", "runtime/debug.Stack"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("workers=%d: error %q does not contain %q", workers, msg, want)
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("workers=%d: %d goroutines left running (was %d)", workers, n, before)
		}
	}
}
