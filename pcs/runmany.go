package pcs

import (
	"context"
	"math"
	"runtime"
	"sort"

	"repro/internal/runner"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// MetricSummary describes one latency metric across replications: the
// across-replication mean with a 95 % confidence interval, plus the spread
// of the per-replication values.
type MetricSummary struct {
	// Mean is the across-replication mean, CI95 the half-width of its 95 %
	// confidence interval (Student's t).
	Mean, CI95 float64
	// StdDev is the sample standard deviation of per-replication values.
	StdDev float64
	// P50/P99/Min/Max describe the distribution of per-replication values.
	P50, P99, Min, Max float64
}

// Aggregate is the result of a replication set (RunCells, RunUntil,
// RunSpec.Report, MergeStream): every Result metric the evaluation
// reports, summarised across n independent replications.
type Aggregate struct {
	Technique    string
	Scenario     string
	ArrivalRate  float64
	Replications int
	Workers      int

	// Converged reports whether a RunUntil call met its CI target before
	// hitting the replication cap; fixed-count aggregates leave it false.
	Converged bool

	// AvgOverallMs and P99ComponentMs summarise the paper's two headline
	// metrics across replications.
	AvgOverallMs   MetricSummary
	P99ComponentMs MetricSummary

	// Distribution detail, likewise across replications.
	OverallP50Ms    MetricSummary
	OverallP99Ms    MetricSummary
	ComponentMeanMs MetricSummary

	// Totals summed over replications.
	Arrivals, Completed, Migrations int

	// Runs holds per-replication results in replication order when a
	// caller attached them (from RunCells' emit); every pcs entry point
	// leaves it nil, keeping O(replications) floats instead of Results.
	Runs []Result
}

// RunCells executes a set of cells — each cell a RunSpec replicated
// Replications times (0 = 1) — as one flat pool of (cell, replication)
// jobs, so a 36-cell single-replication sweep and a 1-cell
// 16-replication set both fill the cores. Replication i of a cell runs
// Run with the seed xrand.StreamSeed(cell.Seed, i): replication 0 is the
// cell's own seed, and nothing about the pool reaches a result. workers
// bounds the pool (0 = GOMAXPROCS, divided by the widest cell's Shards via
// shard.ReplicationWorkers).
//
// emit, when non-nil, receives every run on the calling goroutine in
// (cell, replication) order; a json.Encoder over the StreamedRun it
// receives writes the canonical NDJSON frame (StreamTo does exactly
// that). An emit error stops the pool and is returned.
//
// Each cell's Aggregate is the streaming fold MergeStream repeats over
// the cell's frames: Runs nil, Workers the pool width.
func RunCells(cells []RunSpec, workers int, emit func(cell int, run StreamedRun) error) ([]Aggregate, error) {
	sets := make([]replicationSet, len(cells))
	shards, total := 1, 0
	for i, cell := range cells {
		spec, err := cell.Options()
		if err != nil {
			return nil, err
		}
		sets[i] = replicationSet{spec: spec, to: max(cell.Replications, 1)}
		total += sets[i].to
		width := spec.Shards
		if width < 0 { // all cores
			width = runtime.GOMAXPROCS(0)
		}
		shards = max(shards, width)
	}
	pool := runner.Options{Workers: shard.ReplicationWorkers(workers, shards)}
	folds := make([]aggregator, len(cells))
	err := runSets(context.Background(), sets, pool, func(cell int, run StreamedRun) error {
		folds[cell].add(run.Result)
		if emit == nil {
			return nil
		}
		return emit(cell, run)
	})
	if err != nil {
		return nil, err
	}
	aggs := make([]Aggregate, len(cells))
	width := pool.EffectiveWorkers(total)
	for i := range folds {
		aggs[i] = folds[i].aggregate(width)
	}
	return aggs, nil
}

// replicationSet is replications [from, to) of one configuration.
type replicationSet struct {
	spec     RunSpec
	from, to int
}

// runSets is the one replication job: it flattens the sets into
// (set, replication) jobs on one runner pool and hands each run to emit
// in (set, replication) order. Replication i of a set runs with seed
// xrand.StreamSeed(set.spec.Seed, i) whatever the set's from, which is
// what makes a resumed tail (RunManyStreamFrom) or a later batch
// (RunUntil) the same runs as an uninterrupted set. ctx is checked at
// every replication boundary: once it is done no replication starts or
// is emitted, and ctx's error is returned.
func runSets(ctx context.Context, sets []replicationSet, pool runner.Options, emit func(set int, run StreamedRun) error) error {
	first := make([]int, len(sets)+1) // first[i] is set i's first flat job
	for i, s := range sets {
		first[i+1] = first[i] + s.to - s.from
	}
	locate := func(job int) (set, rep int) {
		set = sort.SearchInts(first, job+1) - 1
		return set, sets[set].from + job - first[set]
	}
	// The runner's own seed stream is unused: seeds derive from each
	// set's root and the replication's index within its set.
	return runner.Stream(0, first[len(sets)], pool,
		func(job int, _ int64) (StreamedRun, error) {
			if err := ctx.Err(); err != nil {
				return StreamedRun{}, err
			}
			set, rep := locate(job)
			spec := sets[set].spec
			spec.Seed = xrand.StreamSeed(spec.Seed, rep)
			res, err := Run(spec)
			return StreamedRun{Rep: rep, Seed: spec.Seed, Result: res}, err
		},
		func(job int, run StreamedRun) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			set, _ := locate(job)
			return emit(set, run)
		})
}

// aggregator folds per-replication Results into the across-replication
// summaries incrementally, holding only the five metric vectors (one
// float64 per replication each) and the integer totals — not the Results
// themselves. It is the one fold: RunCells, RunUntil and MergeStream all
// feed it, and the same Results in the same order produce bit-identical
// Aggregates on every path, because the Welford fold and the totals see
// the exact same additions.
type aggregator struct {
	n           int
	technique   string
	scenario    string
	arrivalRate float64

	avgOverall, p99Comp    []float64
	overallP50, overallP99 []float64
	compMean               []float64
	arrivals, completed    int
	migrations             int
}

// add folds one replication's Result, in replication order.
func (a *aggregator) add(r Result) {
	if a.n == 0 {
		a.technique = r.Technique
		a.scenario = r.Scenario
		a.arrivalRate = r.ArrivalRate
	}
	a.n++
	a.avgOverall = append(a.avgOverall, r.AvgOverallMs)
	a.p99Comp = append(a.p99Comp, r.P99ComponentMs)
	a.overallP50 = append(a.overallP50, r.OverallP50Ms)
	a.overallP99 = append(a.overallP99, r.OverallP99Ms)
	a.compMean = append(a.compMean, r.ComponentMeanMs)
	a.arrivals += r.Arrivals
	a.completed += r.Completed
	a.migrations += r.Migrations
}

// aggregate summarises the folded replications. Runs is left nil.
func (a *aggregator) aggregate(workers int) Aggregate {
	return Aggregate{
		Technique:       a.technique,
		Scenario:        a.scenario,
		ArrivalRate:     a.arrivalRate,
		Replications:    a.n,
		Workers:         workers,
		AvgOverallMs:    summarizeMetric(a.avgOverall),
		P99ComponentMs:  summarizeMetric(a.p99Comp),
		OverallP50Ms:    summarizeMetric(a.overallP50),
		OverallP99Ms:    summarizeMetric(a.overallP99),
		ComponentMeanMs: summarizeMetric(a.compMean),
		Arrivals:        a.arrivals,
		Completed:       a.completed,
		Migrations:      a.migrations,
	}
}

// summarizeMetric folds per-replication values of one metric through the
// stats machinery: Welford for mean/CI/stddev, percentiles for the spread.
func summarizeMetric(vals []float64) MetricSummary {
	var w stats.Welford
	w.AddAll(vals)
	return MetricSummary{
		Mean:   w.Mean(),
		CI95:   w.MeanCI95(),
		StdDev: math.Sqrt(w.SampleVariance()),
		P50:    stats.Percentile(vals, 50),
		P99:    stats.Percentile(vals, 99),
		Min:    stats.Min(vals),
		Max:    stats.Max(vals),
	}
}
