// Command bench is the repository benchmark: five checked-in RunSpec
// workloads driven through the public simulation API and the pcs-serve
// HTTP API, with end-to-end host metrics from an untraced pass and
// per-layer metrics from a separate traced pass. It is its own module so
// the repository's build and tests are unaffected by it. Run it from this
// directory:
//
//	go run .                         # every workload, untraced
//	go run . -trace 1                # every workload, per-layer
//	go run . -workload request-path -seed 3 -seconds 12 -trace 0
//	go run . -compare out/a.json out/b.json
//	go run . -pin                    # re-pin the output digests
//
// bash run.sh takes the same flags and keeps every build artifact under
// out/.build/. README.md describes the workloads and metrics.
//
// With -workload, the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
// each value the median of the run's samples. Every run also writes its
// samples, with an environment header, to out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// header describes where and how a result file was produced.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"goVersion"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpuModel"`
	Seed       int64   `json:"seed"`
	Pass       string  `json:"pass"`
	Seconds    float64 `json:"seconds"`
}

func newHeader(cfg runConfig) header {
	pass := "untraced"
	if cfg.trace {
		pass = "traced"
	}
	return header{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Seed:       cfg.seed,
		Pass:       pass,
		Seconds:    cfg.seconds,
	}
}

// gitCommit reads HEAD from the enclosing repository's .git directory
// without running git; a checkout without one reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile("../.git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join("../.git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile("../.git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// workloadResult is one workload's run as stored in a result file.
type workloadResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]*series `json:"metrics"`
	// CalibrationSeconds are the kernel timings the times were scaled by.
	CalibrationSeconds []float64 `json:"calibrationSeconds"`
}

// resultFile is what every run writes under out/ and -compare reads.
type resultFile struct {
	Header    header                     `json:"header"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// finish turns an outcome into its stored result, checking that the pass
// produced every metric it defines with a finite value.
func finish(o *outcome, defs []metricDef) *workloadResult {
	for _, d := range defs {
		s := o.metrics[d.Name]
		if s == nil || len(s.Samples) == 0 {
			o.problem("metric %s was not measured", d.Name)
			continue
		}
		for _, v := range s.Samples {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				o.problem("metric %s has a non-finite sample", d.Name)
				delete(o.metrics, d.Name)
				break
			}
		}
	}
	return &workloadResult{
		Correct:            len(o.problems) == 0,
		Attempted:          o.attempted,
		Failed:             o.failed,
		Problems:           o.problems,
		Metrics:            o.metrics,
		CalibrationSeconds: o.cal.seconds,
	}
}

// resultLine is the one-line summary the last line of stdout carries.
func resultLine(r *workloadResult) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, make(map[string]value)}
	for name, s := range r.Metrics {
		line.Metrics[name] = value{median(s.Samples), s.Unit}
	}
	return json.Marshal(line)
}

// printSummary writes a workload's metrics as a table: median, quartiles,
// sample count and the highest percentile with ten samples beyond it.
func printSummary(w io.Writer, name string, r *workloadResult, notes []string) {
	status := "correct"
	if !r.Correct {
		status = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s: %s, %d attempted, %d failed\n", name, status, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	fmt.Fprintf(w, "%-28s %14s %14s %14s %5s  %-22s %s\n", "metric", "median", "q1", "q3", "n", "tail", "unit")
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			s := r.Metrics[d.Name]
			if s == nil {
				continue
			}
			sum := summarize(s.Samples)
			tail := ""
			if p := tailPercentile(sum.N); p > 0 {
				tail = fmt.Sprintf("p%g=%.6g", p, percentile(s.Samples, p))
			}
			fmt.Fprintf(w, "%-28s %14.6g %14.6g %14.6g %5d  %-22s %s\n",
				d.Name, sum.Median, sum.Q1, sum.Q3, sum.N, tail, s.Unit)
		}
	}
	for _, n := range notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
}

func main() {
	if code, isChild := childMain(os.Args[1:]); isChild {
		os.Exit(code)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childMain runs the process as one of the benchmark's own children when
// its first argument names one: the daemon (-daemon) or an in-process
// repetition (-rep).
func childMain(args []string) (code int, isChild bool) {
	if len(args) == 0 {
		return 0, false
	}
	switch args[0] {
	case "-daemon":
		return daemonMain(args[1:]), true
	case "-rep":
		return repMain(args[1:]), true
	}
	return 0, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("bench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	cfg := defaultConfig()
	name := fset.String("workload", "", "run one workload (default: every workload, each in its own process)")
	fset.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fset.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured window per workload, in seconds")
	trace := fset.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	out := fset.String("out", "", "result file (default out/<workload>.<pass>.json, or out/<pass>.json for every workload)")
	compare := fset.Bool("compare", false, "compare two result files: -compare a.json b.json")
	pin := fset.Bool("pin", false, "re-pin the output digests of seeds 1-10 into "+digestFile)
	if err := fset.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	if _, err := os.Stat("specs"); err != nil {
		fmt.Fprintln(stderr, "bench: run from the bench directory (specs/ not found)")
		return 2
	}
	var err error
	switch {
	case *compare:
		if fset.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		var worse int
		if worse, err = compareFiles(fset.Arg(0), fset.Arg(1), stdout); err == nil && worse > 0 {
			return 1
		}
	case *pin:
		err = pinDigests(10)
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		if *out == "" {
			*out = filepath.Join("out", w.Name+"."+newHeader(cfg).Pass+".json")
		}
		return runOne(w, cfg, *out, stdout, stderr)
	default:
		if *out == "" {
			*out = filepath.Join("out", newHeader(cfg).Pass+".json")
		}
		return runAll(cfg, *out, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne runs a workload in this process, writes its result file and
// prints the result line last on stdout.
func runOne(w workload, cfg runConfig, out string, stdout, stderr io.Writer) int {
	var tr *tracer
	defs := endToEnd
	if cfg.trace {
		tr = newTracer()
		defs = perLayer
	}
	o, err := runWorkload(w, cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	r := finish(o, defs)
	printSummary(stderr, w.Name, r, o.notes)
	if tr != nil {
		tr.printSelfTime(stderr)
		if err := tr.writeSpans(filepath.Join("out", w.Name+".spans.json")); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := writeJSONFile(out, resultFile{Header: newHeader(cfg), Workloads: map[string]*workloadResult{w.Name: r}}); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := resultLine(r)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !r.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so peak RSS and
// garbage-collector state stay per workload, and merges their result
// files.
func runAll(cfg runConfig, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := resultFile{Header: newHeader(cfg), Workloads: make(map[string]*workloadResult)}
	code := 0
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace)
		cmd.Stdout = io.Discard
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			code = 1
		}
		r, err := readResultFile(filepath.Join("out", w.Name+"."+all.Header.Pass+".json"))
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			code = 1
			continue
		}
		for k, v := range r.Workloads {
			all.Workloads[k] = v
		}
	}
	if err := writeJSONFile(out, all); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, w := range workloads {
		if r := all.Workloads[w.Name]; r != nil {
			printSummary(stdout, w.Name, r, nil)
			if !r.Correct {
				code = 1
			}
		}
	}
	fmt.Fprintf(stdout, "results: %s\n", out)
	return code
}

// pinDigests records the canonical output digest of every workload at
// seeds 1..n. Re-pin only for a deliberate model change (README.md).
func pinDigests(n int) error {
	pins := make(map[string]map[string]string)
	for _, w := range workloads {
		pins[w.Name] = make(map[string]string)
		for seed := int64(1); seed <= int64(n); seed++ {
			cfg := defaultConfig()
			cfg.seed = seed
			spec, err := loadSpec(w, cfg)
			if err != nil {
				return err
			}
			var output []byte
			if w.served {
				p, err := buildPool(spec, cfg, true)
				if err != nil {
					return err
				}
				output = p.digestInput()
			} else {
				s, err := newSimulation(spec)
				if err != nil {
					return err
				}
				if output, err = json.Marshal(s.Finish()); err != nil {
					return err
				}
			}
			pins[w.Name][fmt.Sprint(seed)] = digest(output)
		}
	}
	return writeJSONFile(digestFile, pins)
}
