package pcs

import (
	"encoding/json"
	"reflect"
	"testing"
)

// shardCounts is the table the acceptance criterion names: sequential,
// and 2/4/8-way sharded.
var shardCounts = []int{1, 2, 4, 8}

// reportBytes renders a Result the way every sink in the repo does
// (encoding/json, shortest float representation), so "byte-identical
// reports" is checked on the actual serialized artifact, not a Go-level
// approximation of it.
func reportBytes(t *testing.T, r Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedRunBitIdenticalAllScenariosTechniques is the tentpole's
// acceptance gate: for every conformance cell — every registered scenario
// under Basic and PCS, every technique on the default scenario — runs at
// 1, 2, 4 and 8 shards produce byte-identical reports. Sharding only ever
// moves the wall clock.
func TestShardedRunBitIdenticalAllScenariosTechniques(t *testing.T) {
	for _, c := range conformanceCells() {
		assertShardsBitIdentical(t, c.label(), equivOpts(c.Tech, c.Scenario, 17))
	}
}

// TestShardedSampledRunMatchesUnshardedSnapshots pins the composition of
// sharding with PR 3's observability: a sharded run observed through
// SampleEvery yields the exact snapshot series — and final Result — of the
// unsharded sampled run. Observation stays free and sharding stays
// invisible even when both are on.
func TestShardedSampledRunMatchesUnshardedSnapshots(t *testing.T) {
	assertSampledMatches(t, "node-failure/PCS", "shards",
		equivOpts(PCS, "node-failure", 23), shardCounts[1:],
		func(o *RunSpec, n int) { o.Shards = n })
}

// TestRunManyShardsOnlyMovesWallClock pins the shards × replications
// composition: a replication aggregate is bit-identical whether each
// replication runs sequentially or sharded, at any worker budget.
func TestRunManyShardsOnlyMovesWallClock(t *testing.T) {
	opts := equivOpts(PCS, "", 29)
	opts.Replications = 3
	seq := runSet(t, opts, 0)
	o := opts
	o.Shards = 4
	sharded := runSet(t, o, 0)
	// Workers is a wall-clock budgeting detail and legitimately differs;
	// every computed value must not.
	sharded.Workers = seq.Workers
	for i := range sharded.Runs {
		if !reflect.DeepEqual(sharded.Runs[i], seq.Runs[i]) {
			t.Fatalf("replication %d diverged under sharding:\nsharded: %+v\nseq:     %+v",
				i, sharded.Runs[i], seq.Runs[i])
		}
	}
	if !reflect.DeepEqual(sharded, seq) {
		t.Fatalf("aggregate diverged under sharding:\nsharded: %+v\nseq:     %+v", sharded, seq)
	}
}

// TestSimulationCloseReleasesWorkers covers the explicit Close path: an
// abandoned sharded simulation can be closed early and still advanced
// (regions fall back inline) with results identical to a sequential run.
func TestSimulationCloseReleasesWorkers(t *testing.T) {
	opts := equivOpts(Basic, "", 31)
	want, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Shards = 4
	s, err := NewSimulation(o)
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(s.Horizon() / 3)
	s.Close() // abandon mid-run ...
	got := s.Finish()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run after Close diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
}
