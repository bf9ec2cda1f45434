package pcs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/runner"
	"repro/internal/shard"
)

// StreamedRun is one line of a streamed replication set: NDJSON, one JSON
// object per replication, in replication order. Seed records the
// replication's derived seed so any single line can be reproduced with
// pcs.Run directly.
type StreamedRun struct {
	Rep    int    `json:"rep"`
	Seed   int64  `json:"seed"`
	Result Result `json:"result"`
}

// StreamTo returns a RunCells emit that writes each run to w as one
// NDJSON StreamedRun frame — the single producer of the frame format that
// pcs-sim -stream, pcs-sweep -stream, CITarget.Sink and the daemon's
// store and SSE stream all carry. A sweep's frames are cell after cell,
// each cell's replications numbered from 0.
//
// encoding/json renders float64 with the shortest representation that
// round-trips exactly, so a cell's frames merged back through MergeStream
// reproduce its aggregate bit for bit.
func StreamTo(w io.Writer) func(cell int, run StreamedRun) error {
	enc := json.NewEncoder(w)
	return func(_ int, run StreamedRun) error {
		if err := enc.Encode(run); err != nil {
			return fmt.Errorf("pcs: streaming replication %d: %w", run.Rep, err)
		}
		return nil
	}
}

// decodeStream reads an NDJSON replication stream in order, handing each
// record to fn, and returns how many records it saw. It is the single
// consumer-side validator: gaps and reordering error out.
func decodeStream(r io.Reader, fn func(StreamedRun)) (int, error) {
	dec := json.NewDecoder(r)
	next := 0
	for {
		var rec StreamedRun
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return next, nil
			}
			return next, fmt.Errorf("pcs: reading stream at replication %d: %w", next, err)
		}
		if rec.Rep != next {
			return next, fmt.Errorf("pcs: stream corrupt: got replication %d, want %d", rec.Rep, next)
		}
		fn(rec)
		next++
	}
}

// RunManyStreamFrom is the cancellable, resumable replication set the
// daemon runs: it executes replications [from, n) of spec, where n is
// spec.Replications (0 = 1), on the RunCells job and pool code (spec.Workers
// as RunCells budgets them) and writes each one's frame to sink in
// replication order. Replication i always runs with seed
// xrand.StreamSeed(spec.Seed, i) regardless of where the call starts,
// so appending this call's output to an intact prefix of a previous run's
// stream reconstructs the full stream exactly. That is the daemon's
// crash-recovery contract: resume from the completed-replication frontier
// and the stored bytes end up indistinguishable from an uninterrupted run.
//
// ctx is checked at every replication boundary: once it is done, no new
// replication starts (in-flight ones finish and are discarded) and the
// call returns ctx's error. Cancellation never truncates a frame — sink
// only ever receives whole records that completed in order.
//
// No Aggregate is returned: a resumed caller owns bytes this call never
// saw, so folding the full stream (MergeStream) is its job.
func RunManyStreamFrom(ctx context.Context, spec RunSpec, from int, sink io.Writer) error {
	n := max(spec.Replications, 1)
	if sink == nil {
		return fmt.Errorf("pcs: RunManyStreamFrom needs a sink (use RunCells to aggregate in memory)")
	}
	if from < 0 || from > n {
		return fmt.Errorf("pcs: RunManyStreamFrom resume point %d outside [0, %d]", from, n)
	}
	if from == n {
		return nil // nothing left to run; the stored prefix is the stream
	}
	pool := runner.Options{Workers: shard.ReplicationWorkers(spec.Workers, spec.Shards)}
	return runSets(ctx, []replicationSet{{spec: spec, from: from, to: n}}, pool, StreamTo(sink))
}

// MergeStream folds one cell's NDJSON replication stream (as written by
// StreamTo, CITarget.Sink or the daemon) back into its Aggregate. The merge is the
// same fold the runs went through when they were produced, so the summaries
// come out bit-identical to the Aggregate the original call returned. Lines
// must be complete and in replication order — a gap or reordering is
// corruption and errors out. Runs is left nil and Workers 0: both describe
// how the original run was executed, which a file cannot know.
func MergeStream(r io.Reader) (Aggregate, error) {
	var a aggregator
	n, err := decodeStream(r, func(rec StreamedRun) { a.add(rec.Result) })
	if err != nil {
		return Aggregate{}, err
	}
	if n == 0 {
		return Aggregate{}, fmt.Errorf("pcs: empty replication stream")
	}
	return a.aggregate(0), nil
}

// ReadStream decodes every line of an NDJSON replication stream, validating
// order. It is the "give me the raw runs back" counterpart to MergeStream,
// for callers who want per-replication detail from a stored stream.
func ReadStream(r io.Reader) ([]StreamedRun, error) {
	var recs []StreamedRun
	if _, err := decodeStream(r, func(rec StreamedRun) { recs = append(recs, rec) }); err != nil {
		return nil, err
	}
	return recs, nil
}
