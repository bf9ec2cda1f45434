// Package repro's root benchmark harness regenerates every figure of the
// paper's evaluation (§VI) as testing.B benchmarks, plus ablations of the
// design choices DESIGN.md calls out. Run:
//
//	go test -bench=. -benchmem
//
// Benchmarks print the paper-comparable numbers via b.ReportMetric and
// b.Log, so `go test -bench` output doubles as the EXPERIMENTS.md data
// source. Scale knobs are reduced relative to cmd/pcs-* so a full bench
// pass stays in the minutes range; the cmd tools run the full-size
// versions.
package repro

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/scheduler"
	"repro/internal/shard"
	"repro/internal/traffic"
	"repro/internal/xrand"
	"repro/pcs"
)

// BenchmarkFig5PredictionAccuracy regenerates Fig. 5: per-case prediction
// error of the performance model over 90 co-location cases (3 Hadoop kinds
// × 20 sizes + 3 Spark kinds × 10 sizes). Paper: mean error 2.68 %, with
// <3 %/<5 %/<8 % bands at 63.33 %/82.22 %/96.67 %.
func BenchmarkFig5PredictionAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(experiments.Fig5Config{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanErrPct, "mean-err-%")
		b.ReportMetric(100*res.FracBelow3, "cases<3%-%")
		b.ReportMetric(100*res.FracBelow5, "cases<5%-%")
		b.ReportMetric(100*res.FracBelow8, "cases<8%-%")
		if i == 0 {
			b.Logf("fig5: mean err %.2f%% (paper 2.68%%); bands <3/<5/<8: %.1f/%.1f/%.1f%% (paper 63.3/82.2/96.7)",
				res.MeanErrPct, 100*res.FracBelow3, 100*res.FracBelow5, 100*res.FracBelow8)
		}
	}
}

// fig6BenchRates mirrors the paper's λ sweep. Each (technique, rate) cell
// is its own sub-benchmark so `-bench Fig6` prints the full table.
var fig6BenchRates = []float64{10, 20, 50, 100, 200, 500}

// BenchmarkFig6ServicePerformance regenerates Fig. 6 cell by cell:
// avg overall service latency and p99 component latency per technique per
// arrival rate. Paper shape: PCS lowest overall; RED helps only at light
// load and deteriorates beyond Basic under heavy load (RED-5 worst);
// reissue degrades more gracefully. Headline: PCS −67.05 % p99 and
// −64.16 % overall vs the redundancy/reissue techniques.
func BenchmarkFig6ServicePerformance(b *testing.B) {
	for _, rate := range fig6BenchRates {
		for _, tech := range pcs.Techniques() {
			name := fmt.Sprintf("%s/λ=%.0f", tech, rate)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					requests := 6000
					if min := int(60 * rate); requests < min {
						requests = min
					}
					res, err := pcs.Run(pcs.RunSpec{
						Technique:   tech,
						Seed:        1,
						ArrivalRate: rate,
						Requests:    requests,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.AvgOverallMs, "avg-overall-ms")
					b.ReportMetric(res.P99ComponentMs, "p99-component-ms")
				}
			})
		}
	}
}

// BenchmarkFig7SchedulerScalability regenerates Fig. 7: analysis (matrix
// construction) and search (greedy loop) wall time as (m, k) grows to
// (640, 128). Paper: 551 ms total at the largest point, <0.1 % of the
// 600 s scheduling interval.
func BenchmarkFig7SchedulerScalability(b *testing.B) {
	ladder := []experiments.Fig7Point{
		{M: 40, K: 8}, {M: 80, K: 16}, {M: 160, K: 32}, {M: 320, K: 64}, {M: 640, K: 128},
	}
	for _, p := range ladder {
		b.Run(fmt.Sprintf("m=%d/k=%d", p.M, p.K), func(b *testing.B) {
			b.ReportAllocs()
			src := xrand.New(1)
			in, err := experiments.SyntheticMatrixInput("", p.M, p.K, 10, 100, src)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var analysisMs, searchMs float64
			for i := 0; i < b.N; i++ {
				res, _, err := scheduler.BuildAndSchedule(in, scheduler.Config{Epsilon: 0.005})
				if err != nil {
					b.Fatal(err)
				}
				analysisMs += float64(res.AnalysisTime.Microseconds()) / 1000
				searchMs += float64(res.SearchTime.Microseconds()) / 1000
			}
			b.ReportMetric(analysisMs/float64(b.N), "analysis-ms")
			b.ReportMetric(searchMs/float64(b.N), "search-ms")
			b.ReportMetric((analysisMs+searchMs)/float64(b.N), "total-ms")
		})
	}
}

// BenchmarkAblationThreshold sweeps the migration threshold ε (§VI-C
// discusses why 5 ms — 5 % of the acceptable latency — balances reduction
// opportunity against migration cost; our compressed time scale recentres
// the sweep around 0.005 ms).
func BenchmarkAblationThreshold(b *testing.B) {
	for _, epsUs := range []float64{0, 5, 20, 100, 1000} { // microseconds
		b.Run(fmt.Sprintf("eps=%.0fus", epsUs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pcs.Run(pcs.RunSpec{
					Technique:      pcs.PCS,
					Seed:           1,
					ArrivalRate:    200,
					Requests:       12000,
					EpsilonSeconds: epsUs * 1e-6,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AvgOverallMs, "avg-overall-ms")
				b.ReportMetric(res.P99ComponentMs, "p99-component-ms")
				b.ReportMetric(float64(res.Migrations), "migrations")
			}
		})
	}
}

// BenchmarkAblationQueueModel compares the extended model's M/G/1 formula
// against the M/M/1 special case (§IV-B) and against no queue model at all
// (basic model only) as the predictor driving PCS.
func BenchmarkAblationQueueModel(b *testing.B) {
	for _, qm := range []string{"mg1", "mm1", "none"} {
		b.Run(qm, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pcs.Run(pcs.RunSpec{
					Technique:   pcs.PCS,
					Seed:        1,
					ArrivalRate: 300,
					Requests:    18000,
					QueueModel:  qm,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AvgOverallMs, "avg-overall-ms")
				b.ReportMetric(res.P99ComponentMs, "p99-component-ms")
			}
		})
	}
}

// BenchmarkAblationRegressionDegree compares linear vs quadratic
// per-resource regressions as the runtime model (DESIGN.md: degree 1 keeps
// extrapolation monotone; degree 2 captures the convex core term
// in-range).
func BenchmarkAblationRegressionDegree(b *testing.B) {
	for _, degree := range []int{1, 2} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pcs.Run(pcs.RunSpec{
					Technique:        pcs.PCS,
					Seed:             1,
					ArrivalRate:      200,
					Requests:         12000,
					RegressionDegree: degree,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AvgOverallMs, "avg-overall-ms")
				b.ReportMetric(res.P99ComponentMs, "p99-component-ms")
			}
		})
	}
}

// BenchmarkMatrixBuild isolates performance-matrix construction cost (the
// O(m·k) "analysis" of §VI-D) for profiling, sequentially and sharded
// across all cores. The sharded build is pinned bit-identical to the
// sequential one by the predictor's tests; here only the wall clock is
// interesting.
func BenchmarkMatrixBuild(b *testing.B) {
	src := xrand.New(1)
	in, err := experiments.SyntheticMatrixInput("", 160, 32, 10, 100, src)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := scheduler.BuildAndSchedule(in, scheduler.Config{Epsilon: 1e9}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Machine-independent sub-benchmark name (bench-gate compares runs
	// across machines by name); the core count is a metric instead.
	b.Run("sharded", func(b *testing.B) {
		b.ReportAllocs()
		pool := shard.NewPool(runtime.GOMAXPROCS(0))
		defer pool.Close()
		sharded := in
		sharded.Pool = pool
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := scheduler.BuildAndSchedule(sharded, scheduler.Config{Epsilon: 1e9}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	})
}

// BenchmarkShardedRun is the intra-run sharding benchmark: one
// large-cluster PCS simulation (96 nodes, 194 components — the regime
// where profiling and the per-interval O(m·k) matrix work dominate) run
// sequentially and at -shards 4. The two runs' Results must be
// bit-identical — sharding may only move the wall clock. The speedup is
// reported, not asserted: about a tenth of this run is sharded work, so
// Amdahl's law caps 4 shards near 1.1× (DESIGN.md §5).
func BenchmarkShardedRun(b *testing.B) {
	opts := pcs.RunSpec{
		Technique:   pcs.PCS,
		Scenario:    "large-cluster",
		Seed:        1,
		ArrivalRate: 100,
		Requests:    2000,
		// A short interval concentrates the run on the control-plane work
		// sharding targets, mirroring how the scheduling cost scales as
		// clusters grow (Fig. 7's trajectory).
		SchedulingInterval: 2,
		TrainingMixes:      60,
		ProfilingProbes:    150,
	}
	run := func(b *testing.B, shards int) pcs.Result {
		var res pcs.Result
		for i := 0; i < b.N; i++ {
			o := opts
			o.Shards = shards
			var err error
			res, err = pcs.Run(o)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.AvgOverallMs, "avg-overall-ms")
			b.ReportMetric(float64(res.Migrations), "migrations")
		}
		return res
	}
	var sequential, sharded pcs.Result
	var seqNs float64
	var ranSeq, ranSharded bool
	b.Run("sequential", func(b *testing.B) {
		ranSeq = true
		start := time.Now()
		sequential = run(b, 1)
		seqNs = float64(time.Since(start).Nanoseconds()) / float64(b.N)
	})
	// The name avoids a trailing -4: `go test` appends -GOMAXPROCS to
	// benchmark names (omitted at GOMAXPROCS=1), and bench-gate strips
	// that suffix, so a name ending in -digits would parse differently
	// across machines.
	b.Run("sharded4", func(b *testing.B) {
		ranSharded = true
		start := time.Now()
		sharded = run(b, 4)
		shardedNs := float64(time.Since(start).Nanoseconds()) / float64(b.N)
		if seqNs > 0 && shardedNs > 0 {
			b.ReportMetric(seqNs/shardedNs, "speedup-x")
		}
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	})
	// A -bench filter may select only one sub-benchmark; compare only when
	// both actually ran.
	if ranSeq && ranSharded && !reflect.DeepEqual(sequential, sharded) {
		b.Fatalf("sharded result diverged from sequential:\nsharded:    %+v\nsequential: %+v",
			sharded, sequential)
	}
}

// BenchmarkLanedRun times the laned data plane: the same large-cluster
// PCS run as BenchmarkShardedRun with the affinity-laned physics at 1, 4
// and 8 lanes. The lane count no longer reaches execution (the plane runs
// on the simulation's own goroutine), so every cell must produce the
// identical Result (determinism invariant #10).
func BenchmarkLanedRun(b *testing.B) {
	opts := pcs.RunSpec{
		Technique:          pcs.PCS,
		Scenario:           "large-cluster",
		Seed:               1,
		ArrivalRate:        100,
		Requests:           2000,
		SchedulingInterval: 2,
		TrainingMixes:      60,
		ProfilingProbes:    150,
	}
	// Sub-benchmark names carry the lane count without a trailing -digits
	// suffix (bench-gate strips `go test`'s -GOMAXPROCS suffix by regex).
	cases := []struct {
		name  string
		lanes int
	}{
		{"lanes1", 1},
		{"lanes4", 4},
		{"lanes8", 8},
	}
	results := make(map[string]pcs.Result)
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := opts
				o.Lanes = c.lanes
				res, err := pcs.Run(o)
				if err != nil {
					b.Fatal(err)
				}
				results[c.name] = res
				b.ReportMetric(res.AvgOverallMs, "avg-overall-ms")
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
		})
	}
	// A -bench filter may select a subset; compare whichever cells ran.
	base, ok := results["lanes1"]
	if ok {
		for _, c := range cases[1:] {
			res, ran := results[c.name]
			if ran && !reflect.DeepEqual(res, base) {
				b.Fatalf("%s result diverged from lanes1 (invariant #10):\n%s: %+v\nlanes1: %+v",
					c.name, c.name, res, base)
			}
		}
	}
}

// BenchmarkParallelSweep measures the wall-clock win of the parallel
// replication runner: the same 8-replication aggregate computed serially
// (workers=1) and fanned out across all cores (workers=0 → GOMAXPROCS).
// The aggregates are bit-identical either way — only the wall clock moves —
// so on a 4+ core machine the parallel sub-benchmark's ns/op should be
// ≥ 2× lower than serial's. The speedup ratio is reported on the parallel
// run as cores allow.
func BenchmarkParallelSweep(b *testing.B) {
	spec := pcs.RunSpec{
		Technique:        pcs.Basic,
		Seed:             1,
		Nodes:            10,
		SearchComponents: 20,
		ArrivalRate:      100,
		Requests:         4000,
		Replications:     8,
	}
	run := func(b *testing.B, workers int) pcs.Aggregate {
		var agg pcs.Aggregate
		for i := 0; i < b.N; i++ {
			aggs, err := pcs.RunCells([]pcs.RunSpec{spec}, workers, nil)
			if err != nil {
				b.Fatal(err)
			}
			agg = aggs[0]
			b.ReportMetric(agg.AvgOverallMs.Mean, "avg-overall-ms")
			b.ReportMetric(agg.AvgOverallMs.CI95, "ci95-ms")
		}
		return agg
	}
	var serial, parallel pcs.Aggregate
	var serialNs float64
	var ranSerial, ranParallel bool
	b.Run("serial", func(b *testing.B) {
		ranSerial = true
		start := time.Now()
		serial = run(b, 1)
		serialNs = float64(time.Since(start).Nanoseconds()) / float64(b.N)
	})
	b.Run("parallel", func(b *testing.B) {
		ranParallel = true
		start := time.Now()
		parallel = run(b, 0)
		parallelNs := float64(time.Since(start).Nanoseconds()) / float64(b.N)
		if serialNs > 0 && parallelNs > 0 {
			b.ReportMetric(serialNs/parallelNs, "speedup-x")
		}
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	})
	// A -bench filter may select only one sub-benchmark; compare only when
	// both actually ran.
	if ranSerial && ranParallel && serial.AvgOverallMs != parallel.AvgOverallMs {
		b.Fatalf("parallel aggregate diverged from serial: %+v vs %+v",
			parallel.AvgOverallMs, serial.AvgOverallMs)
	}
}

// BenchmarkTrafficSources measures the arrival-source layer itself: how
// fast each traffic.Source kind can produce arrivals, isolated from the
// simulation. The absolute numbers only matter relative to each other —
// every kind must stay cheap enough that arrival generation never shows
// up next to the per-request simulation work. These benchmarks postdate
// BENCH_SEED.json; bench-gate reports them as NEW and skips the ratio
// check until the seed is regenerated.
func BenchmarkTrafficSources(b *testing.B) {
	specs := []struct {
		name string
		spec traffic.Spec
	}{
		{"poisson", traffic.Spec{Kind: traffic.KindPoisson, Rate: 100}},
		{"sessions", traffic.Spec{Kind: traffic.KindSessions, Users: 200, ThinkSeconds: 2}},
		{"mmpp", traffic.Spec{Kind: traffic.KindMMPP,
			Rates: []float64{20, 400}, Sojourns: []float64{10, 2}, HeavyTail: true}},
		{"multi-tenant", traffic.Spec{Kind: traffic.KindMultiTenant, Tenants: []traffic.TenantSpec{
			{Name: "a", Source: traffic.Spec{Kind: traffic.KindPoisson, Rate: 60}},
			{Name: "b", Source: traffic.Spec{Kind: traffic.KindPoisson, Rate: 40},
				AdmitRate: 30, Burst: 10},
		}}},
	}
	for _, tc := range specs {
		name, spec := tc.name, tc.spec
		b.Run(name, func(b *testing.B) {
			src, err := spec.New(xrand.New(1).Fork(), 100)
			if err != nil {
				b.Fatal(err)
			}
			now := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, ok := src.Next(now)
				if !ok {
					b.Fatal("source ran dry")
				}
				now = a.At
			}
		})
	}
}

// BenchmarkTrafficTenantStorm runs the tenant-storm scenario end to end:
// the multi-tenant admission path (merge, token buckets, per-tenant
// accounting) under a full Basic simulation. NEW relative to
// BENCH_SEED.json; bench-gate skips it until the seed is regenerated.
func BenchmarkTrafficTenantStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := pcs.Run(pcs.RunSpec{
			Technique:   pcs.Basic,
			Scenario:    "tenant-storm",
			Seed:        int64(i + 1),
			ArrivalRate: 90,
			Requests:    5000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tenants) != 3 {
			b.Fatalf("expected 3 tenant breakdowns, got %d", len(res.Tenants))
		}
	}
}

// BenchmarkSimulationThroughput measures raw simulator speed (requests
// simulated per wall second) at the Fig. 6 deployment size.
func BenchmarkSimulationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := pcs.Run(pcs.RunSpec{
			Technique:   pcs.Basic,
			Seed:        int64(i + 1),
			ArrivalRate: 100,
			Requests:    5000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed == 0 {
			b.Fatal("no requests completed")
		}
	}
}

// BenchmarkDAGRun measures service-graph execution: the four DAG
// scenarios (fan-out with retries, storage tiers, a breaker storm, a
// timeout-bounded aggregation) each simulated end to end, plus the
// fanout-retry world on the laned data plane at 1 and 4 lanes. Every
// cell asserts invariant #11's accounting (admitted = completed +
// failed + timed out, graph counters present) and iterations must be
// bit-identical; the laned cells must additionally match each other
// exactly (invariant #10 extended to DAG runs).
func BenchmarkDAGRun(b *testing.B) {
	opts := func(scenario string, lanes int) pcs.RunSpec {
		return pcs.RunSpec{
			Technique:   pcs.Basic,
			Scenario:    scenario,
			Seed:        1,
			ArrivalRate: 150,
			Requests:    4000,
			Lanes:       lanes,
		}
	}
	run := func(b *testing.B, o pcs.RunSpec) pcs.Result {
		var first pcs.Result
		for i := 0; i < b.N; i++ {
			res, err := pcs.Run(o)
			if err != nil {
				b.Fatal(err)
			}
			if res.Graph == nil {
				b.Fatal("report carries no graph counters")
			}
			if res.Arrivals != res.Completed+res.Failed+res.TimedOut {
				b.Fatalf("conservation violated: %d arrived, %d completed + %d failed + %d timed out",
					res.Arrivals, res.Completed, res.Failed, res.TimedOut)
			}
			if i == 0 {
				first = res
			} else if !reflect.DeepEqual(res, first) {
				b.Fatal("iterations diverged: DAG run is not deterministic")
			}
			b.ReportMetric(res.AvgOverallMs, "avg-overall-ms")
			b.ReportMetric(float64(res.Graph.Retries), "retries")
		}
		return first
	}
	for _, scenario := range []string{"fanout-retry", "storage-cache", "circuit-storm", "dag-timeout"} {
		scenario := scenario
		b.Run(scenario, func(b *testing.B) { run(b, opts(scenario, 0)) })
	}
	laned := make(map[int]pcs.Result)
	for _, lanes := range []int{1, 4} {
		lanes := lanes
		b.Run(fmt.Sprintf("fanout-retry-lanes%d", lanes), func(b *testing.B) {
			laned[lanes] = run(b, opts("fanout-retry", lanes))
		})
	}
	// A -bench filter may select a subset; compare only when both ran.
	if r1, ok1 := laned[1]; ok1 {
		if r4, ok4 := laned[4]; ok4 && !reflect.DeepEqual(r4, r1) {
			b.Fatalf("laned DAG run diverged across lane counts:\nlanes4: %+v\nlanes1: %+v", r4, r1)
		}
	}
}
