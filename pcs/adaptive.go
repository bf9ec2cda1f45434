package pcs

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/runner"
	"repro/internal/shard"
)

// CITarget is RunUntil's stopping rule: replicate until the 95 %
// confidence intervals of the headline metrics are tight enough, within a
// hard replication cap.
type CITarget struct {
	// RelHalfWidth is the target relative CI95 half-width, e.g. 0.05 for
	// ±5 %: replication stops once CI95/mean ≤ RelHalfWidth for both
	// AvgOverallMs and P99ComponentMs. Required.
	RelHalfWidth float64
	// MinReplications is the floor before the first convergence check
	// (default 5; at least 3, below which the t-interval is meaningless).
	MinReplications int
	// MaxReplications is the hard cap (default 64). If the target is not
	// met by then, the aggregate is returned with Converged == false.
	MaxReplications int
	// BatchSize is how many replications run between convergence checks
	// (default 4). It is a fixed count, not "one batch per core", so the
	// stopping point — and therefore the aggregate — is identical on any
	// machine.
	BatchSize int
	// Workers bounds each batch's worker pool (0 = all cores). It affects
	// wall-clock time only, never the aggregate.
	Workers int
	// Sink, when non-nil, receives every replication's Result as one
	// NDJSON line (the StreamedRun format, in replication order) as
	// replications complete, so an adaptive run leaves the same on-disk
	// trail as a fixed-count set streamed through StreamTo. Writing is
	// observationally free: it changes neither the stopping point nor the
	// aggregate.
	Sink io.Writer
}

func (t CITarget) withDefaults() CITarget {
	if t.MinReplications <= 0 {
		t.MinReplications = 5
	}
	if t.MinReplications < 3 {
		t.MinReplications = 3
	}
	if t.MaxReplications <= 0 {
		t.MaxReplications = 64
	}
	// The cap is the hard limit: an explicit MaxReplications below the
	// minimum lowers the minimum, never the other way around.
	if t.MinReplications > t.MaxReplications {
		t.MinReplications = t.MaxReplications
	}
	if t.BatchSize <= 0 {
		t.BatchSize = 4
	}
	return t
}

// converged reports whether both headline metrics meet the relative CI
// target. Fewer than two replications never converge: a single sample has
// no interval.
func (t CITarget) converged(agg Aggregate) bool {
	if agg.Replications < 2 {
		return false
	}
	rel := func(m MetricSummary) float64 {
		if m.Mean == 0 {
			return math.Inf(1)
		}
		return m.CI95 / math.Abs(m.Mean)
	}
	return rel(agg.AvgOverallMs) <= t.RelHalfWidth && rel(agg.P99ComponentMs) <= t.RelHalfWidth
}

// RunUntil runs replication batches of the configured simulation until the
// CI95 half-widths of the two headline metrics fall below the relative
// target, or the replication cap is reached (ROADMAP's adaptive
// replication counts). The batches run on the RunCells job and pool code
// and fold through the same aggregator, and replication i always runs
// with the seed stream xrand.StreamSeed(spec.Seed, i) — so the aggregate
// equals RunCells' for the n it stops at, is bit-identical for any worker
// count, and Converged records whether the target was met.
func RunUntil(spec RunSpec, target CITarget) (Aggregate, error) {
	t := target.withDefaults()
	if t.RelHalfWidth <= 0 {
		return Aggregate{}, fmt.Errorf("pcs: RunUntil needs a positive relative CI target, got %g", t.RelHalfWidth)
	}

	pool := runner.Options{Workers: shard.ReplicationWorkers(t.Workers, spec.Shards)}
	write := func(int, StreamedRun) error { return nil }
	if t.Sink != nil {
		write = StreamTo(t.Sink)
	}
	var a aggregator
	emit := func(cell int, run StreamedRun) error {
		a.add(run.Result)
		return write(cell, run)
	}
	for {
		batch := t.BatchSize
		if a.n == 0 {
			batch = t.MinReplications
		}
		set := replicationSet{spec: spec, from: a.n, to: min(a.n+batch, t.MaxReplications)}
		if err := runSets(context.Background(), []replicationSet{set}, pool, emit); err != nil {
			return Aggregate{}, err
		}
		agg := a.aggregate(pool.EffectiveWorkers(a.n))
		agg.Converged = t.converged(agg)
		if agg.Converged || a.n >= t.MaxReplications {
			return agg, nil
		}
	}
}
