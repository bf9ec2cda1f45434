// Package runner executes independent simulation replications across a
// pool of worker goroutines. The paper's evaluation (§VI) derives every
// headline number from repeated runs — six arrival rates × six techniques,
// each ideally averaged over many seeds — and those runs share nothing, so
// they parallelise perfectly.
//
// Determinism is the design constraint: replication i always runs with the
// seed xrand.StreamSeed(root, i), and Stream — the one pool — hands results
// to its consumer in replication order, so the output is bit-identical
// regardless of the number of workers or the order in which the scheduler
// interleaves them. Run is Stream collecting into a slice.
//
// A replication that panics fails that replication, not the process: the
// panic value and its stack become the replication's error.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/xrand"
)

// Job computes one replication. rep is the replication index in [0, n);
// seed is the replication's deterministic RNG seed derived from the root
// seed. A Job must not share mutable state with other replications: it runs
// concurrently with them.
type Job[T any] func(rep int, seed int64) (T, error)

// Options configures the pool.
type Options struct {
	// Workers is the number of concurrent worker goroutines. Zero or
	// negative selects GOMAXPROCS, the number of usable cores.
	Workers int
}

// EffectiveWorkers reports the worker count Stream actually uses for n
// replications: the configured count (or GOMAXPROCS when unset), clamped
// to n.
func (o Options) EffectiveWorkers(n int) int { return o.workers(n) }

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run is Stream collecting into a slice: it returns the n results ordered
// by replication index. Replication i runs with seed
// xrand.StreamSeed(root, i) — stream 0 is the root seed itself, so a
// 1-replication run reproduces a direct call with the root seed. Errors
// are Stream's.
func Run[T any](root int64, n int, opts Options, job Job[T]) ([]T, error) {
	var results []T
	err := Stream(root, n, opts, job, func(_ int, res T) error {
		results = append(results, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Stream executes n replications of job across the pool and hands each
// result to emit in replication-index order, without collecting them into a
// slice — the memory contract behind streaming sinks for huge sweeps.
// emit runs on the coordinating goroutine, serially and in order;
// out-of-order completions wait in a reorder buffer. A claim window
// (2 × workers) gates how far the pool may run ahead of the oldest
// unemitted replication, so the buffer holds O(workers) results even when
// one replication is much slower than its peers — never O(n).
//
// An emit error stops the pool and is returned as-is. A job error — or a
// job panic, reported as "panic: <value>" with the goroutine's stack — is
// the lowest-indexed failure observed, wrapped with its replication
// index; which later replications were still attempted depends on
// scheduling. On return every worker goroutine has exited.
func Stream[T any](root int64, n int, opts Options, job Job[T], emit func(rep int, result T) error) error {
	if n <= 0 {
		return fmt.Errorf("runner: need at least one replication, got %d", n)
	}
	workers := opts.workers(n)
	if workers == 1 {
		// Serial fast path: already ordered.
		for rep := 0; rep < n; rep++ {
			res, err := call(job, rep, xrand.StreamSeed(root, rep))
			if err != nil {
				return fmt.Errorf("runner: replication %d: %w", rep, err)
			}
			if err := emit(rep, res); err != nil {
				return err
			}
		}
		return nil
	}

	type item struct {
		rep int
		res T
		err error
	}
	ch := make(chan item, workers)
	// window tokens bound in-flight + buffered replications: a worker takes
	// a token to claim a replication, the coordinator returns it when the
	// replication is emitted. window ≥ workers is required so the final
	// "discover rep >= n" claims cannot starve; 2× keeps the pool busy
	// while the oldest replication straggles.
	window := 2 * workers
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	stopped := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(stopped) }) }

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-tokens:
				case <-stopped:
					return
				}
				rep := int(next.Add(1)) - 1
				if rep >= n {
					return
				}
				select {
				case <-stopped:
					return
				default:
				}
				res, err := call(job, rep, xrand.StreamSeed(root, rep))
				ch <- item{rep: rep, res: res, err: err}
				if err != nil {
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()

	pending := make(map[int]T)
	nextEmit := 0
	var jobErr error
	jobErrRep := n
	var emitErr error
	for it := range ch {
		if it.err != nil {
			stop()
			if it.rep < jobErrRep {
				jobErr, jobErrRep = it.err, it.rep
			}
			continue
		}
		if emitErr != nil || jobErr != nil {
			continue // draining
		}
		pending[it.rep] = it.res
		for {
			res, ok := pending[nextEmit]
			if !ok {
				break
			}
			delete(pending, nextEmit)
			if err := emit(nextEmit, res); err != nil {
				emitErr = err
				stop()
				break
			}
			nextEmit++
			tokens <- struct{}{} // capacity == window ≥ outstanding: never blocks
		}
	}
	if emitErr != nil {
		return emitErr
	}
	if jobErr != nil {
		return fmt.Errorf("runner: replication %d: %w", jobErrRep, jobErr)
	}
	return nil
}

// call runs one replication, converting a panic into its error so a bad
// replication fails its run instead of killing the process (and, under
// pcs-serve, every other run in it).
func call[T any](job Job[T], rep int, seed int64) (res T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return job(rep, seed)
}
