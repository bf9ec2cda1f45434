// Package shard provides the deterministic intra-run parallelism primitive
// of the simulator: a fixed pool of shard workers that fan node-indexed
// work out at window boundaries and join at a barrier before the engine
// executes the next event.
//
// The determinism contract every parallel region must obey (and the reason
// sharded runs are bit-identical to sequential ones for any shard count):
//
//  1. Inputs are frozen at the barrier entry. A region reads only state
//     that no shard mutates during the region.
//  2. Writes land in disjoint, index-addressed slots (a node's aggregate, a
//     matrix row, a sample slot). No two shards write the same word.
//  3. Randomness inside a region comes from per-entity streams forked, or
//     seeded from seeds drawn, in canonical index order before the region
//     starts — a draw depends only on its entity and position, never on
//     shard interleaving.
//  4. Reductions fold the slots on the coordinating goroutine, in index
//     order, after the barrier.
//
// Under these rules a region computes the same floats in the same slots
// whether it runs on 1 shard or 16, so parallelism moves only the wall
// clock. The simulation's data-plane events (request dispatch, execution
// completions, cancellations) have zero cross-shard lookahead and stay on
// the engine's sequential event order; the control-plane windows — demand
// ticks, monitor refreshes, performance-matrix construction, profiling —
// are where the cluster-sized O(nodes) and O(components × nodes) work
// lives, and those are the regions this pool parallelises.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Cut returns the half-open range [lo, hi) of n items owned by shard s of
// k: contiguous, balanced to within one item, covering [0, n) exactly.
func Cut(n, k, s int) (lo, hi int) {
	return s * n / k, (s + 1) * n / k
}

// Pool is a fixed set of shard workers executing fork-join regions. A nil
// *Pool is valid and runs every region inline on the caller — integration
// points take an optional *Pool and need no branching.
//
// Workers are long-lived goroutines parked between regions, so a region
// costs two channel hops per shard rather than goroutine spawns; a
// simulation crosses thousands of window barriers. Close releases the
// workers; a closed (or single-shard) pool runs regions inline.
type Pool struct {
	shards int
	tasks  chan func()
	closed atomic.Bool
	once   sync.Once
}

// NewPool creates a pool of k shards. k <= 1 (and k == 1 in particular)
// spawns no goroutines: regions run inline, making the single-shard path
// byte-for-byte the sequential code path.
func NewPool(k int) *Pool {
	if k < 1 {
		k = 1
	}
	p := &Pool{shards: k}
	if k > 1 {
		p.tasks = make(chan func())
		for i := 0; i < k-1; i++ {
			go func() {
				for fn := range p.tasks {
					fn()
				}
			}()
		}
	}
	return p
}

// Shards reports the pool's shard count; a nil pool has one shard.
func (p *Pool) Shards() int {
	if p == nil {
		return 1
	}
	return p.shards
}

// Run executes one fork-join region over n items: fn(s, lo, hi) runs once
// per shard s with its contiguous item range, concurrently across shards,
// and Run returns only when every shard finished — the window barrier.
// With fewer items than shards, surplus shards sit the region out. Panics
// inside fn are re-raised on the caller after the barrier (lowest shard
// first), so a bug surfaces identically at any shard count. Regions must
// not nest: fn must not call Run on the same pool.
func (p *Pool) Run(n int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	k := p.Shards()
	if k > n {
		k = n
	}
	if k == 1 || p == nil || p.closed.Load() {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	panics := make([]any, k)
	run := func(s int) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panics[s] = r
			}
		}()
		lo, hi := Cut(n, k, s)
		fn(s, lo, hi)
	}
	wg.Add(k)
	for s := 1; s < k; s++ {
		s := s
		p.tasks <- func() { run(s) }
	}
	run(0)
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}

// ReplicationWorkers budgets a replication pool's worker count against
// intra-run sharding, so workers × shards stays at the machine's width
// instead of oversubscribing it. An explicit (positive) worker count
// always wins. shards follows pcs.RunSpec.Shards semantics: <= 1 is
// sequential (return the caller's value unchanged, letting the runner
// default to GOMAXPROCS), negative means all cores. Worker counts never
// reach results; this is a wall-clock decision only.
func ReplicationWorkers(explicit, shards int) int {
	if explicit > 0 {
		return explicit
	}
	if shards < 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards <= 1 {
		return explicit
	}
	w := runtime.GOMAXPROCS(0) / shards
	if w < 1 {
		w = 1
	}
	return w
}

// Close releases the worker goroutines. Closing is idempotent; Run on a
// closed pool degrades to inline execution with identical results. Do not
// call Close concurrently with an in-flight Run.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		p.closed.Store(true)
		if p.tasks != nil {
			close(p.tasks)
		}
	})
}
