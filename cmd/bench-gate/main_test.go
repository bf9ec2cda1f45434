package main

import (
	"strings"
	"testing"
)

const sampleOutput = `
goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig5PredictionAccuracy 	       1	 3582327 ns/op	         2.691 mean-err-%	        60.00 cases<3%-%
BenchmarkFig6ServicePerformance/RED-3/λ=10-8         	       1	1474171700 ns/op	         1.657 avg-overall-ms
BenchmarkAblationThreshold/eps=0us-8 	       1	1047724405 ns/op	        41.00 migrations
BenchmarkMatrixBuild-8  	       5	  24249250 ns/op	 1024 B/op	      12 allocs/op
PASS
ok  	repro	142.5s
`

func TestParseBench(t *testing.T) {
	benches, _, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(benches), benches)
	}
	by := map[string]Benchmark{}
	for _, b := range benches {
		by[b.Name] = b
	}

	// The GOMAXPROCS suffix must be stripped without eating name-internal
	// dashes (RED-3) or digits (eps=0us).
	red3, ok := by["BenchmarkFig6ServicePerformance/RED-3/λ=10"]
	if !ok {
		t.Fatalf("RED-3 sub-benchmark not found: %v", by)
	}
	if red3.NsPerOp != 1474171700 || red3.Metrics["avg-overall-ms"] != 1.657 {
		t.Fatalf("RED-3 parsed wrong: %+v", red3)
	}
	if _, ok := by["BenchmarkAblationThreshold/eps=0us"]; !ok {
		t.Fatalf("eps=0us sub-benchmark not found: %v", by)
	}

	fig5 := by["BenchmarkFig5PredictionAccuracy"]
	if fig5.Iters != 1 || fig5.NsPerOp != 3582327 {
		t.Fatalf("fig5 parsed wrong: %+v", fig5)
	}
	if fig5.Metrics["mean-err-%"] != 2.691 || fig5.Metrics["cases<3%-%"] != 60 {
		t.Fatalf("fig5 metrics parsed wrong: %+v", fig5.Metrics)
	}

	mb := by["BenchmarkMatrixBuild"]
	if mb.Iters != 5 || mb.BytesOp == nil || *mb.BytesOp != 1024 || mb.AllocsOp == nil || *mb.AllocsOp != 12 {
		t.Fatalf("alloc fields parsed wrong: %+v", mb)
	}
}

func TestGateSkipsBenchmarksAbsentFromSeed(t *testing.T) {
	seed := []Benchmark{
		{Name: "BenchmarkFig6ServicePerformance/Basic/λ=10", NsPerOp: 1e9},
	}
	run := []Benchmark{
		{Name: "BenchmarkFig6ServicePerformance/Basic/λ=10", NsPerOp: 1.1e9},
		// Postdates the seed (the BenchmarkTraffic* family): reported as
		// NEW, never failed, however slow it is.
		{Name: "BenchmarkTrafficTenantStorm", NsPerOp: 9e12},
	}
	var out strings.Builder
	if failed := gate(&out, run, seed, 1.25, 1e6, false); failed != 0 {
		t.Fatalf("gate failed %d benchmark(s) on a run with only NEW additions:\n%s", failed, out.String())
	}
	if !strings.Contains(out.String(), "NEW   BenchmarkTrafficTenantStorm") {
		t.Fatalf("NEW benchmark not reported:\n%s", out.String())
	}

	// The same benchmark present in the seed is gated normally.
	seed = append(seed, Benchmark{Name: "BenchmarkTrafficTenantStorm", NsPerOp: 1e9})
	out.Reset()
	if failed := gate(&out, run, seed, 1.25, 1e6, false); failed != 1 {
		t.Fatalf("gate passed a 9000x regression once seeded:\n%s", out.String())
	}
}

func TestGateCalibratesMachineSpeed(t *testing.T) {
	// A uniformly 2x slower runner must not fail the board: the median
	// ratio is divided out before gating.
	seed := []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1e9},
		{Name: "BenchmarkB", NsPerOp: 2e9},
		{Name: "BenchmarkC", NsPerOp: 3e9},
	}
	run := []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 2e9},
		{Name: "BenchmarkB", NsPerOp: 4e9},
		{Name: "BenchmarkC", NsPerOp: 6e9},
	}
	var out strings.Builder
	if failed := gate(&out, run, seed, 1.25, 1e6, true); failed != 0 {
		t.Fatalf("uniform 2x slowdown failed the calibrated gate:\n%s", out.String())
	}
	// One benchmark regressing far beyond the machine factor still fails.
	run[1].NsPerOp = 20e9
	out.Reset()
	if failed := gate(&out, run, seed, 1.25, 1e6, true); failed != 1 {
		t.Fatalf("isolated regression hidden by calibration (failed=%d):\n%s", failed, out.String())
	}
}

func TestParseBenchEmpty(t *testing.T) {
	benches, _, err := parseBench(strings.NewReader("PASS\nok \trepro\t1.0s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 0 {
		t.Fatalf("parsed %d benchmarks from non-bench output", len(benches))
	}
}

// TestParseBenchFoldsRepeatsToMedian: the lines of a -count N pass fold
// into one entry per benchmark carrying the median ns/op, B/op and
// allocs/op — one noisy pass moves nothing — and the repeat count is
// reported for the snapshot header.
func TestParseBenchFoldsRepeatsToMedian(t *testing.T) {
	const repeated = `
BenchmarkDAGRun-2   	       1	 900000000 ns/op	 300 B/op	 7 allocs/op
BenchmarkMatrixBuild-2	       1	  20000000 ns/op
BenchmarkDAGRun-2   	       1	5000000000 ns/op	 100 B/op	 5 allocs/op
BenchmarkMatrixBuild-2	       1	  40000000 ns/op
BenchmarkDAGRun-2   	       1	1000000000 ns/op	 200 B/op	 6 allocs/op
`
	benches, count, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 || len(benches) != 2 {
		t.Fatalf("count=%d, %d benchmarks; want 3 passes of 2 benchmarks: %+v", count, len(benches), benches)
	}
	dag, mb := benches[0], benches[1]
	if dag.Name != "BenchmarkDAGRun" || dag.NsPerOp != 1e9 || *dag.BytesOp != 200 || *dag.AllocsOp != 6 {
		t.Fatalf("DAGRun folded to %+v (B/op %v, allocs %v), want the 1e9 ns/op, 200 B/op, 6 allocs/op medians",
			dag, *dag.BytesOp, *dag.AllocsOp)
	}
	// An even number of passes takes the mean of the middle two.
	if mb.Name != "BenchmarkMatrixBuild" || mb.NsPerOp != 30e6 || mb.BytesOp != nil || mb.AllocsOp != nil {
		t.Fatalf("MatrixBuild folded to %+v, want 30e6 ns/op and no alloc fields", mb)
	}
}

// TestGateSimulatedMetricsExactly: a benchmark in both the run and the
// seed fails when a simulated metric changed or went missing, with a FAIL
// line naming the benchmark, the metric and both values; wall-clock
// metrics may move freely. The seed's ns/op sits below -min-ns, so the
// timing check is skipped while the metric check still applies.
func TestGateSimulatedMetricsExactly(t *testing.T) {
	const name = "BenchmarkFig7SchedulerScalability/m=40/k=8"
	seed := []Benchmark{{Name: name, NsPerOp: 5e5, Metrics: map[string]float64{
		"avg-overall-ms": 1.657, "migrations": 41, "analysis-ms": 0.8,
	}}}
	run := func(edit func(map[string]float64)) []Benchmark {
		m := map[string]float64{"avg-overall-ms": 1.657, "migrations": 41, "analysis-ms": 0.8}
		edit(m)
		return []Benchmark{{Name: name, NsPerOp: 9e5, Metrics: m}}
	}
	cases := []struct {
		desc   string
		edit   func(map[string]float64)
		failed int
		line   string
	}{
		{"unchanged", func(map[string]float64) {}, 0, ""},
		{"wall-clock metric moved", func(m map[string]float64) { m["analysis-ms"] = 0.5 }, 0, ""},
		{"simulated metric changed", func(m map[string]float64) { m["avg-overall-ms"] = 1.658 },
			1, "avg-overall-ms = 1.658, seed 1.657"},
		{"simulated metric missing", func(m map[string]float64) { delete(m, "migrations") },
			1, "migrations missing, seed 41"},
		{"wall-clock metric missing", func(m map[string]float64) { delete(m, "analysis-ms") }, 0, ""},
	}
	for _, c := range cases {
		var out strings.Builder
		failed := gate(&out, run(c.edit), seed, 1.25, 1e6, true)
		if failed != c.failed {
			t.Errorf("%s: %d failure(s), want %d:\n%s", c.desc, failed, c.failed, out.String())
			continue
		}
		if c.line == "" {
			continue
		}
		named := false
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "FAIL  "+name) && strings.Contains(l, c.line) {
				named = true
			}
		}
		if !named {
			t.Errorf("%s: no FAIL line naming %s and %q:\n%s", c.desc, name, c.line, out.String())
		}
	}
}

// TestGateAllocsPerOp: a benchmark in both the run and the seed fails when
// its allocs/op exceed the seed's × 1.01 + 8, with a FAIL line naming the
// benchmark and both counts, whatever -min-ns and the calibration say (the
// seed's ns/op sits below -min-ns). Runtime noise passes, fewer
// allocations pass, and a seed without allocs/op skips the check, as does
// a run whose `cores` metric differs from the seed's.
func TestGateAllocsPerOp(t *testing.T) {
	allocs := func(v float64) *float64 { return &v }
	cores := func(n float64) map[string]float64 { return map[string]float64{"cores": n} }
	const name = "BenchmarkDAGRun/fanout-retry"
	cases := []struct {
		desc                string
		seed, run           *float64
		seedCores, runCores map[string]float64
		failed              int
		line                string
	}{
		// 10,000 requests at 5 allocations each, then one more per request.
		{"one extra allocation per request", allocs(50000), allocs(60000), nil, nil, 1, "60000 allocs/op vs seed 50000"},
		// Fig. 5's pass-to-pass noise: 399, 404 or 409 objects.
		{"pass-to-pass noise", allocs(399), allocs(404), nil, nil, 0, ""},
		{"widest pass-to-pass noise", allocs(399), allocs(409), nil, nil, 0, ""},
		{"fewer allocations", allocs(50000), allocs(20000), nil, nil, 0, ""},
		{"seed without allocs/op", nil, allocs(60000), nil, nil, 0, ""},
		// A GOMAXPROCS-sized benchmark (BenchmarkMatrixBuild/sharded: 49
		// objects on 2 cores, 69 on 4) on a machine with more cores.
		{"different core count", allocs(49), allocs(69), cores(2), cores(4), 0, ""},
		{"same core count", allocs(49), allocs(69), cores(2), cores(2), 1, "69 allocs/op vs seed 49"},
	}
	for _, c := range cases {
		seed := []Benchmark{{Name: name, NsPerOp: 5e5, AllocsOp: c.seed, Metrics: c.seedCores}}
		run := []Benchmark{{Name: name, NsPerOp: 5e5, AllocsOp: c.run, Metrics: c.runCores}}
		var out strings.Builder
		failed := gate(&out, run, seed, 1.25, 1e6, true)
		if failed != c.failed {
			t.Errorf("%s: %d failure(s), want %d:\n%s", c.desc, failed, c.failed, out.String())
			continue
		}
		if c.line == "" {
			continue
		}
		named := false
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "FAIL  "+name) && strings.Contains(l, c.line) {
				named = true
			}
		}
		if !named {
			t.Errorf("%s: no FAIL line naming %s and %q:\n%s", c.desc, name, c.line, out.String())
		}
	}
}
