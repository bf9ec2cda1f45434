package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none. BENCHMARK.json
// mirrors these tables (pinned by TestBenchmarkJSONMatchesCode).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every untraced run reports. A "run" is one
// execution of the workload's RunSpec to its report: Simulation.Finish in
// process, or POST → SSE end through the daemon. Every metric is host
// time or host resources, times scaled to the reference host speed
// (calib.go); simulated-time outputs are pinned by the correctness oracle
// instead, because they are exact per seed. The bounds follow the spreads
// measured over ten seeds (README.md gives them), and setup_s, whose
// spread is not gated, has the largest.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.20},
	{"run_s", "s", "lower", 0.15},
	{"allocs_per_req", "count", "lower", 0.01},
	{"bytes_per_req", "B", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.05},
}

// perLayer are the metrics every traced run reports, one layer each (the
// README maps each to the end-to-end metric it should move).
var perLayer = []metricDef{
	{"sim.events", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.pending_max", "count", "lower", 0},
	{"sim.push_pop_ns", "ns", "lower", 0},
	{"service.data_ns_per_req", "ns", "lower", 0},
	{"service.law_sample_ns", "ns", "lower", 0},
	{"service.queued_max", "count", "lower", 0},
	{"cluster.contention_read_ns", "ns", "lower", 0},
	{"monitor.tick_ms_p50", "ms", "lower", 0},
	{"scheduler.interval_ms_p50", "ms", "lower", 0},
	{"scheduler.interval_ms_max", "ms", "lower", 0},
	{"scheduler.intervals", "count", "lower", 0},
	{"scheduler.migrations", "count", "lower", 0},
	{"predictor.matrix_build_ms", "ms", "lower", 0},
	{"scheduler.search_ms", "ms", "lower", 0},
	{"profiling.train_ms", "ms", "lower", 0},
	{"runtime.gc_cpu_frac", "frac", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"serve.post_ms_p50", "ms", "lower", 0},
	{"serve.first_frame_ms_p50", "ms", "lower", 0},
	{"serve.end_ms_p50", "ms", "lower", 0},
	{"serve.latency_p95_ms", "ms", "lower", 0},
	{"serve.overhead_ms", "ms", "lower", 0},
	{"serve.replay_ms_per_run", "ms", "lower", 0},
	{"serve.store_bytes_per_run", "B", "lower", 0},
	{"stream.merge_us_per_frame", "us", "lower", 0},
	{"calib.kernel_ms", "ms", "lower", 0},
}

// lookupMetric finds a metric definition in either table.
func lookupMetric(name string) (metricDef, bool) {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// series is one metric's samples from one run, reported as their median.
type series struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
}

// summary is a series reduced to its median and quartiles.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	q := quartiles(xs)
	return summary{Median: median(xs), Q1: q[0], Q3: q[2], N: len(xs)}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// medianSpread estimates the interquartile range of the median itself,
// as a share of it: for n samples the median's standard error is about
// 1.2533 σ/√n, so its quartile distance is about 1.2533 × IQR/√n.
func (s summary) medianSpread() float64 {
	if s.N == 0 {
		return 0
	}
	return 1.2533 * s.spread() / math.Sqrt(float64(s.N))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between closest ranks (p in [0, 100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles follows Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, so spreads read here match the ones a Python harness
// computes from the same values.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// tailLadder lists the percentiles reported beside a median, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least ten of n samples beyond it, or 0 when none does: a tail read
// from fewer samples is one outlier, not a percentile.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// procStats is one reading of a process's resource counters.
type procStats struct {
	// AllocObjects and AllocBytes are cumulative heap allocations.
	AllocObjects uint64 `json:"allocObjects"`
	AllocBytes   uint64 `json:"allocBytes"`
	// GCCPUSeconds and BusyCPUSeconds are the runtime's estimates of CPU
	// spent on garbage collection and on anything but idling.
	GCCPUSeconds   float64 `json:"gcCpuSeconds"`
	BusyCPUSeconds float64 `json:"busyCpuSeconds"`
	// HeapBytes is the heap memory occupied by objects, live or not yet
	// swept.
	HeapBytes uint64 `json:"heapBytes"`
	// MaxRSSKB is the process's peak resident set: VmHWM, the high-water
	// mark of its own memory image. Getrusage's maxrss is no use here,
	// since a child keeps the high-water mark of the image it was forked
	// from, the benchmark's.
	MaxRSSKB int64 `json:"maxRssKb"`
}

// peakRSSKB reads VmHWM from /proc/self/status, or 0 where there is none.
func peakRSSKB() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// readProcStats reads the calling process's counters. ReadMemStats stops
// the world briefly; callers read outside timed brackets.
func readProcStats() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(samples)
	return procStats{
		AllocObjects:   ms.Mallocs,
		AllocBytes:     ms.TotalAlloc,
		GCCPUSeconds:   samples[0].Value.Float64(),
		BusyCPUSeconds: samples[1].Value.Float64() - samples[2].Value.Float64(),
		HeapBytes:      samples[3].Value.Uint64(),
		MaxRSSKB:       peakRSSKB(),
	}
}

// outcome collects one workload run: its operations, failed checks,
// metric samples and (traced) spans.
type outcome struct {
	cal               calibrator
	attempted, failed int
	problems          []string
	metrics           map[string]*series
	notes             []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]*series)} }

// add appends samples to a metric; the name must be defined.
func (o *outcome) add(name string, vs ...float64) {
	d, ok := lookupMetric(name)
	if !ok {
		panic("bench: undefined metric " + name)
	}
	s := o.metrics[name]
	if s == nil {
		s = &series{Unit: d.Unit}
		o.metrics[name] = s
	}
	s.Samples = append(s.Samples, vs...)
}

// problem records a failed correctness check.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// note records a line for the human-readable summary.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}
