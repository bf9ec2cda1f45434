package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/pcs"
)

// TestMain lets the test binary double as the benchmark's child
// processes, as the benchmark binary does.
func TestMain(m *testing.M) {
	if code, isChild := childMain(os.Args[1:]); isChild {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {100, 10}, {90, 9.1}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v, want [2.75 5.5 8.25]", got)
	}
	if got := quartiles([]float64{4}); got != [3]float64{4, 4, 4} {
		t.Errorf("quartiles of one sample = %v", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 0}, {1, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "run", Span: 1, StartNs: 0, EndNs: 100},
		{Name: "data", Span: 2, Parent: 1, StartNs: 10, EndNs: 30},
		{Name: "data", Span: 3, Parent: 1, StartNs: 20, EndNs: 50},  // overlaps its sibling
		{Name: "tick", Span: 4, Parent: 1, StartNs: 90, EndNs: 120}, // outlives its parent
		{Name: "inner", Span: 5, Parent: 4, StartNs: 95, EndNs: 100},
	}
	got := selfTime(spans)
	want := map[string]int64{"run": 100 - 40 - 10, "data": 20 + 30, "tick": 30 - 5, "inner": 5}
	for name, ns := range want {
		if int64(got[name]) != ns {
			t.Errorf("self time of %s = %d ns, want %d", name, got[name], ns)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	wide := []float64{1, 2, 0.5, 1.4, 0.6}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"unchanged", lower, tight, tight, verdictWithin},
		{"slower by 5%", lower, tight, scale(tight, 1.05), verdictWithin},
		{"slower by 20%", lower, tight, scale(tight, 1.2), verdictWorse},
		{"faster by 20%", lower, tight, scale(tight, 0.8), verdictBetter},
		{"higher is better", higher, tight, scale(tight, 0.8), verdictWorse},
		{"median less certain than bound", lower, wide, scale(tight, 1.05), verdictUnresolved},
		{"wide but every sample better", lower, wide, scale(tight, 0.3), verdictBetter},
		{"wide samples, many of them", lower, repeat(wide, 40), repeat(scale(wide, 1.05), 40), verdictWithin},
		{"per-layer metric", metricDef{Name: "sim.events", Unit: "count", Better: "lower"}, tight, scale(tight, 2), verdictInfo},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func repeat(xs []float64, n int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		out = append(out, xs...)
	}
	return out
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestHeaderDiffsIgnoreCommit(t *testing.T) {
	a := header{Commit: "a", GoVersion: "go1.24.0", NumCPU: 2, Seed: 1, Pass: "untraced"}
	b := a
	b.Commit = "b"
	if diffs := headerDiffs(a, b); len(diffs) != 0 {
		t.Errorf("commit-only difference reported: %v", diffs)
	}
	b.NumCPU = 4
	if diffs := headerDiffs(a, b); len(diffs) != 1 || !strings.HasPrefix(diffs[0], "nproc") {
		t.Errorf("nproc difference not reported: %v", diffs)
	}
}

func TestSpecsLoadAndMatchWorkloads(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		if _, err := pcs.LoadRunSpec(f); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		names = append(names, strings.TrimSuffix(filepath.Base(f), ".json"))
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("spec files %v, workloads %v", names, want)
	}
}

// benchmarkJSON is the repository's BENCHMARK.json, decoded strictly.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []layerMetric  `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var wls []workloadJSON
	for _, w := range workloads {
		wls = append(wls, workloadJSON{w.Name, w.Why})
	}
	if !reflect.DeepEqual(b.Workloads, wls) {
		t.Errorf("BENCHMARK.json workloads differ from the code's:\n%+v\n%+v", b.Workloads, wls)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the code's:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	var layers []layerMetric
	for _, d := range perLayer {
		layers = append(layers, layerMetric{d.Name, d.Unit, d.Better})
	}
	if !reflect.DeepEqual(b.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer differs from the code's")
	}
	if b.RunSeconds != int(defaultConfig().seconds) {
		t.Errorf("run_seconds %d, default window %g s", b.RunSeconds, defaultConfig().seconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is not allowed", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range b.Workloads {
		check(w.Name, "")
	}
	for _, d := range b.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound of %s is %g, want (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range b.PerLayer {
		check(d.Name, d.Unit)
	}
}

// smokeConfig shrinks a run to a fraction of a second per workload. Seed
// 99 has no pinned digest, since the shrunken specs compute other
// results.
func smokeConfig(trace bool) runConfig {
	return runConfig{seed: 99, seconds: 0, trace: trace, inputs: 1, tracedReps: 1, setups: 2,
		prefill: 2, pool: 2, requests: 200, layerOps: 1000}
}

// TestWorkloadsSmoke runs every workload's untraced and traced pass at a
// tiny size: every check must pass and every metric of BENCHMARK.json
// must come out. The workloads run in parallel.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				start := time.Now()
				cfg := smokeConfig(trace)
				var tr *tracer
				defs := endToEnd
				if trace {
					tr, defs = newTracer(), perLayer
				}
				o, err := runWorkload(w, cfg, tr)
				if err != nil {
					t.Fatalf("trace %v: %v", trace, err)
				}
				r := finish(o, defs)
				if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
					t.Errorf("trace %v: correct %v, %d attempted, %d failed: %v",
						trace, r.Correct, r.Attempted, r.Failed, r.Problems)
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("trace %v: %d metrics, want %d", trace, len(r.Metrics), len(defs))
				}
				if _, err := resultLine(r); err != nil {
					t.Errorf("trace %v: %v", trace, err)
				}
				t.Logf("trace %v: %v", trace, time.Since(start))
			}
		})
	}
}
