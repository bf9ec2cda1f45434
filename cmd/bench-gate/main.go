// Command bench-gate is the CI benchmark-regression gate: it parses the
// text output of `go test -bench`, writes it as a JSON snapshot in the same
// schema as the repo's BENCH_SEED.json, and fails (exit 1) when any
// benchmark's ns/op regressed beyond the allowed ratio against the seed,
// when any simulated metric it reports differs from the seed's, or when its
// allocs/op grew beyond the seed's by more than a fixed tolerance.
//
//	go test -bench . -benchtime 1x -benchmem -run '^$' ./... | tee bench.txt
//	go run ./cmd/bench-gate -input bench.txt -seed BENCH_SEED.json -out BENCH_PR.json
//
// Repeated result lines for one benchmark (go test -count N) fold into
// their median ns/op, B/op and allocs/op, so a seed or a gated run can be
// the median of several passes rather than one noisy iteration.
//
// Benchmarks present in the run but absent from the seed are reported and
// skipped — a new benchmark must not fail the gate that predates it.
// Benchmarks in the seed but absent from the run are likewise only
// reported: CI may shard or filter the pass. Sub-millisecond benchmarks
// are exempt from the ratio check (-min-ns); at one iteration their
// timings are scheduler noise, not signal.
//
// The seed and the CI runner are different machines, so raw ns/op ratios
// carry a machine-speed factor. The gate calibrates it away: the median
// pr/seed ratio across all compared benchmarks is taken as the machine
// factor, and a benchmark fails only when it regressed more than
// -max-ratio beyond that median. A single slow code path stands out; a
// uniformly slower runner does not fail the board (and a uniformly faster
// one does not mask a real regression). -calibrate=false restores raw
// ratios for same-machine comparisons.
//
// The custom metrics the figure benchmarks report (avg-overall-ms,
// p99-component-ms, migrations, ...) are simulated results, bit-exact per
// seed, so they gate exactly: a benchmark in both the run and the seed
// fails when one of the seed's metrics differs from, or is missing in, the
// run, whatever -min-ns and the calibration say. A changed metric is a
// model change. Wall-clock and environment units (timingMetrics) are
// exempt.
//
// allocs/op repeat almost exactly from pass to pass, so they gate tightly,
// again whatever -min-ns and the calibration say: a benchmark in both the
// run and the seed fails when its allocs/op exceed the seed's × 1.01 + 8
// (allocRelSlack, allocAbsSlack). Fewer allocations never fail, and a
// side without allocs/op (a pass without -benchmem) skips the check, as
// does a benchmark whose `cores` metric differs from the seed's (its work,
// and so its allocations, scale with the core count). B/op is recorded but
// not gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's record, schema-compatible with the entries
// of BENCH_SEED.json.
type Benchmark struct {
	Name     string             `json:"name"`
	Iters    int64              `json:"iterations"`
	NsPerOp  float64            `json:"ns_per_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	AllocsOp *float64           `json:"allocs_per_op,omitempty"`
	BytesOp  *float64           `json:"bytes_per_op,omitempty"`
}

// Snapshot is the JSON file layout shared by BENCH_SEED.json and the
// BENCH_PR.json this tool emits.
type Snapshot struct {
	Command    string      `json:"command"`
	GoVersion  string      `json:"go_version,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Cores      int         `json:"cores,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// timingMetrics are the custom metric units that measure the machine
// rather than the model: Fig. 7's wall-clock split, parallel speedups and
// the core count. Every other custom metric is a simulated result.
var timingMetrics = map[string]bool{
	"analysis-ms": true,
	"search-ms":   true,
	"total-ms":    true,
	"speedup-x":   true,
	"cores":       true,
}

// allocRelSlack and allocAbsSlack are the allocs/op tolerance. Runtime
// noise moves a benchmark's count by a few objects:
// BenchmarkFig5PredictionAccuracy makes 399, 404 or 409 from pass to
// pass, and every other benchmark stays within 0.08% of its seed. The
// limit absorbs that and still fails one extra allocation per request on
// any benchmark that runs 1,000 requests or more.
const (
	allocRelSlack = 0.01
	allocAbsSlack = 8
)

// benchLine matches `go test -bench` result lines:
//
//	BenchmarkName-8   12  345 ns/op  1.5 metric-name  24 B/op  3 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so snapshots from machines with
// different core counts compare by benchmark identity.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parseBench reads every result line, folding the repeated lines of one
// benchmark (go test -count N) into their median (foldRepeats), and
// returns one entry per benchmark sorted by name, plus the largest
// repeat count seen.
func parseBench(r io.Reader) ([]Benchmark, int, error) {
	passes := map[string][]Benchmark{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: m[1], Iters: iters}
		fields := strings.Fields(m[3])
		// Result fields come in (value, unit) pairs.
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("bench-gate: bad value %q on line %q", fields[i], sc.Text())
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesOp = &v
			case "allocs/op":
				b.AllocsOp = &v
			case "MB/s":
				// throughput is derived from ns/op; not gated
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		passes[b.Name] = append(passes[b.Name], b)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	out := make([]Benchmark, 0, len(passes))
	count := 0
	for _, p := range passes {
		out = append(out, foldRepeats(p))
		count = max(count, len(p))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, count, nil
}

// foldRepeats folds one benchmark's passes into a single entry whose
// ns/op, B/op and allocs/op are the medians across passes, so one noisy
// pass neither fails the gate nor skews a seed. Iterations and custom
// metrics are the first pass's.
func foldRepeats(passes []Benchmark) Benchmark {
	b := passes[0]
	if len(passes) == 1 {
		return b
	}
	median := func(pick func(Benchmark) *float64) *float64 {
		var vals []float64
		for _, p := range passes {
			if v := pick(p); v != nil {
				vals = append(vals, *v)
			}
		}
		if len(vals) == 0 {
			return nil
		}
		sort.Float64s(vals)
		m := vals[len(vals)/2]
		if len(vals)%2 == 0 {
			m = (vals[len(vals)/2-1] + m) / 2
		}
		return &m
	}
	b.NsPerOp = *median(func(p Benchmark) *float64 { return &p.NsPerOp })
	b.BytesOp = median(func(p Benchmark) *float64 { return p.BytesOp })
	b.AllocsOp = median(func(p Benchmark) *float64 { return p.AllocsOp })
	return b
}

// gate compares a parsed benchmark run against the seed snapshot and
// returns how many checks failed: each benchmark whose ns/op regressed
// beyond maxRatio, each simulated metric that differs from, or is missing
// against, the seed (checkMetrics), and each benchmark whose allocs/op
// exceed the seed's beyond the slack (checkAllocs). A benchmark in the run but
// absent from the seed is reported as NEW and never fails the gate — a
// newly added benchmark (e.g. the BenchmarkTraffic* family) must not fail
// the board that predates it; the seed picks it up when it is next
// regenerated.
func gate(w io.Writer, benches, seed []Benchmark, maxRatio, minNs float64, calibrate bool) int {
	seedBy := make(map[string]Benchmark, len(seed))
	for _, b := range seed {
		seedBy[b.Name] = b
	}

	// Machine-speed calibration: the median pr/seed ratio over the
	// benchmarks eligible for gating.
	factor := 1.0
	if calibrate {
		var ratios []float64
		for _, b := range benches {
			if ref, ok := seedBy[b.Name]; ok && ref.NsPerOp >= minNs {
				ratios = append(ratios, b.NsPerOp/ref.NsPerOp)
			}
		}
		if len(ratios) > 0 {
			sort.Float64s(ratios)
			factor = ratios[len(ratios)/2]
			fmt.Fprintf(w, "bench-gate: machine-speed factor %.2fx (median of %d ratios)\n", factor, len(ratios))
		}
	}

	var failed int
	seen := make(map[string]bool, len(benches))
	for _, b := range benches {
		seen[b.Name] = true
		ref, ok := seedBy[b.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "NEW   %-60s %14.0f ns/op (not in seed, skipped)\n", b.Name, b.NsPerOp)
		case ref.NsPerOp < minNs:
			fmt.Fprintf(w, "SKIP  %-60s %14.0f ns/op (seed %.0f below -min-ns)\n", b.Name, b.NsPerOp, ref.NsPerOp)
		case b.NsPerOp > ref.NsPerOp*factor*maxRatio:
			failed++
			fmt.Fprintf(w, "FAIL  %-60s %14.0f ns/op vs seed %.0f (%.2fx > %.2fx allowed)\n",
				b.Name, b.NsPerOp, ref.NsPerOp, b.NsPerOp/(ref.NsPerOp*factor), maxRatio)
		default:
			fmt.Fprintf(w, "ok    %-60s %14.0f ns/op vs seed %.0f (%.2fx)\n",
				b.Name, b.NsPerOp, ref.NsPerOp, b.NsPerOp/(ref.NsPerOp*factor))
		}
		if ok {
			failed += checkMetrics(w, b, ref) + checkAllocs(w, b, ref)
		}
	}
	for _, b := range seed {
		if !seen[b.Name] {
			fmt.Fprintf(w, "GONE  %-60s (in seed, not in this run)\n", b.Name)
		}
	}
	return failed
}

// checkMetrics compares b's simulated metrics with the seed's entry ref
// exactly, printing one FAIL line per metric that differs or is missing,
// and returns how many did. Metrics only the run reports are new, not
// failures.
func checkMetrics(w io.Writer, b, ref Benchmark) int {
	names := make([]string, 0, len(ref.Metrics))
	for name := range ref.Metrics {
		if !timingMetrics[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	failed := 0
	for _, name := range names {
		want := ref.Metrics[name]
		got, ok := b.Metrics[name]
		switch {
		case !ok:
			failed++
			fmt.Fprintf(w, "FAIL  %-60s %s missing, seed %v (simulated metric)\n", b.Name, name, want)
		case got != want:
			failed++
			fmt.Fprintf(w, "FAIL  %-60s %s = %v, seed %v (simulated metric changed)\n", b.Name, name, got, want)
		}
	}
	return failed
}

// checkAllocs fails b, printing a FAIL line with both counts, when its
// allocs/op exceed the seed entry ref's × (1 + allocRelSlack) +
// allocAbsSlack. It returns 0 when either side has no allocs/op, and
// skips b when its `cores` metric differs from the seed's: a benchmark
// that sizes its work by GOMAXPROCS reports the core count, and its
// allocations grow with it (BenchmarkMatrixBuild/sharded makes one shard
// scratch and one task per core).
func checkAllocs(w io.Writer, b, ref Benchmark) int {
	if b.AllocsOp == nil || ref.AllocsOp == nil {
		return 0
	}
	if got, want := b.Metrics["cores"], ref.Metrics["cores"]; got != want {
		fmt.Fprintf(w, "SKIP  %-60s %.0f allocs/op (%v cores, seed %v: not compared)\n", b.Name, *b.AllocsOp, got, want)
		return 0
	}
	if limit := *ref.AllocsOp*(1+allocRelSlack) + allocAbsSlack; *b.AllocsOp > limit {
		fmt.Fprintf(w, "FAIL  %-60s %.0f allocs/op vs seed %.0f (limit %.2f)\n", b.Name, *b.AllocsOp, *ref.AllocsOp, limit)
		return 1
	}
	return 0
}

func main() {
	log.SetFlags(0)
	var (
		input     = flag.String("input", "-", "benchmark text output to parse ('-' = stdin)")
		seedPath  = flag.String("seed", "BENCH_SEED.json", "seed snapshot to compare against")
		outPath   = flag.String("out", "", "write the parsed run as a JSON snapshot to this path")
		maxRatio  = flag.Float64("max-ratio", 1.25, "fail when ns/op exceeds seed × machine factor × this ratio")
		minNs     = flag.Float64("min-ns", 1e6, "ignore benchmarks whose seed ns/op is below this (timing noise)")
		calibrate = flag.Bool("calibrate", true, "divide out the median pr/seed ratio (machine-speed factor) before gating")
	)
	flag.Parse()

	in := os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	benches, count, err := parseBench(in)
	if err != nil {
		log.Fatal(err)
	}
	if len(benches) == 0 {
		log.Fatal("bench-gate: no benchmark result lines found in input")
	}

	// The environment header travels with the snapshot so a seed regenerated
	// on a different machine is legible: the speedup-asserting benchmark
	// (BenchmarkParallelSweep) self-skips its ratio check when the recorded
	// core count is below the parallelism it exercises, and a reader of
	// BENCH_SEED.json can tell a 1-core seed's ~1x speedups from a
	// regression.
	fmt.Printf("bench-gate: %s, %d cores (GOMAXPROCS), %d cpus\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	if *outPath != "" {
		command := "go test -bench . -benchtime 1x -benchmem -run ^$ ./..."
		if count > 1 {
			command = fmt.Sprintf("go test -bench . -benchtime 1x -benchmem -count %d -run ^$ ./... (median per benchmark)", count)
		}
		snap := Snapshot{
			Command:    command,
			GoVersion:  runtime.Version(),
			Cores:      runtime.GOMAXPROCS(0),
			Benchmarks: benches,
		}
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	seedData, err := os.ReadFile(*seedPath)
	if err != nil {
		log.Fatal(err)
	}
	var seed Snapshot
	if err := json.Unmarshal(seedData, &seed); err != nil {
		log.Fatalf("bench-gate: parsing %s: %v", *seedPath, err)
	}

	failed := gate(os.Stdout, benches, seed.Benchmarks, *maxRatio, *minNs, *calibrate)
	if failed > 0 {
		log.Fatalf("bench-gate: %d check(s) failed vs %s: ns/op more than %.0f%% slower, a simulated metric changed, or allocs/op grew",
			failed, *seedPath, (*maxRatio-1)*100)
	}
	fmt.Printf("bench-gate: %d benchmarks within %.0f%% of %s, simulated metrics unchanged, allocs/op within tolerance\n",
		len(benches), (*maxRatio-1)*100, *seedPath)
}
