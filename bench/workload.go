package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/pcs"
)

// workload is one checked-in RunSpec and the way the benchmark drives it.
type workload struct {
	Name, Why string
	// served workloads run their spec through the daemon in a closed
	// loop; the others run it in process.
	served bool
}

// workloads are the benchmark's inputs, each stressing different layers
// (bench/README.md gives the reasoning).
var workloads = []workload{
	{Name: "request-path", Why: "Basic nutch-search 30x100 at lambda 100: the pure sequential request path (event heap, dispatch, contention reads, law draws) with no control loop"},
	{Name: "redundancy-cancel", Why: "RED-5 at lambda 200: the same data plane under 5x issue, cancellations and deep overloaded queues"},
	{Name: "pcs-control", Why: "PCS on large-cluster 96x194 with a 2 s interval: monitor, predictor, Algorithm 1 and migrations dominate"},
	{Name: "dag-laned", Why: "fanout-retry service DAG on the 2-lane conservative data plane: the second physics and the DAG runtime"},
	{Name: "serve-closed", served: true, Why: "small specs through the pcs-serve HTTP/SSE daemon by a closed-loop client: daemon overhead, store fsync and replay"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig sizes one run. The defaults suit the benchmark; tests shrink
// them to a smoke run.
type runConfig struct {
	seed    int64
	seconds float64 // measured window
	trace   bool
	// inputs is how many specs, differing in seed, an in-process run
	// cycles through; it runs each at least twice, however long that
	// takes. tracedReps is the number of traced repetitions, each paired
	// with an untraced one, and of the scheduler and training calls the
	// layer benchmarks time. setups is the fewest set-up samples behind
	// setup_s, and an in-process run takes more until setupSeconds have
	// passed.
	inputs, tracedReps, setups int
	setupSeconds               float64
	// prefill is the number of runs stored before the served set-up is
	// timed (its restart replays them); pool is how many distinct specs
	// the served loop cycles through.
	prefill, pool int
	// requests, when positive, overrides every spec's request count;
	// layerOps is the operation count of each microbenchmark batch.
	requests, layerOps int
}

func defaultConfig() runConfig {
	return runConfig{seconds: 15, inputs: 8, tracedReps: 3, setups: 15, setupSeconds: 1, prefill: 64, pool: 16, layerOps: 200_000}
}

// loadSpec reads the workload's RunSpec and applies the run's seed.
func loadSpec(w workload, cfg runConfig) (pcs.RunSpec, error) {
	spec, err := pcs.LoadRunSpec(filepath.Join("specs", w.Name+".json"))
	if err != nil {
		return pcs.RunSpec{}, err
	}
	spec.Seed = cfg.seed
	if cfg.requests > 0 {
		spec.Requests = cfg.requests
	}
	return spec, nil
}

// inputSeed is the seed of a run's i-th input; input 0 is the run's own
// seed, the one whose output digest is pinned.
func inputSeed(seed int64, i int) int64 { return seed ^ int64(i)<<32 }

// runWorkload executes one workload and returns its outcome; the error
// reports a failure to run at all, as opposed to a failed check.
func runWorkload(w workload, cfg runConfig, tr *tracer) (*outcome, error) {
	spec, err := loadSpec(w, cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	switch {
	case cfg.trace:
		err = traceWorkload(w, spec, cfg, tr, o)
	case w.served:
		err = measureServed(w, spec, cfg, o)
	default:
		err = measureInProcess(w, spec, cfg, o)
	}
	return o, err
}

// newSimulation is the set-up step every in-process path times.
func newSimulation(spec pcs.RunSpec) (*pcs.Simulation, error) {
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	return pcs.NewSimulation(opts)
}

// maxSetups caps an in-process run's set-up samples; the calibration
// kernel is re-timed every setupsPerCalibration of them.
const (
	maxSetups            = 400
	setupsPerCalibration = 50
)

// measureInProcess times set-up samples in this process, then runs
// repetitions until the window is spent, each in a child process of its
// own, cycling through the run's inputs and checking every Result. A fresh
// process per repetition gives every repetition the same heap and
// garbage-collector state to start from, and its own peak RSS.
func measureInProcess(w workload, spec pcs.RunSpec, cfg runConfig, o *outcome) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	inputs := make([]pcs.RunSpec, cfg.inputs)
	for i := range inputs {
		inputs[i] = spec
		inputs[i].Seed = inputSeed(cfg.seed, i)
	}
	// Set-up is milliseconds for most specs, so its median needs many
	// samples.
	budget := time.Duration(cfg.setupSeconds * float64(time.Second))
	begin := time.Now()
	o.cal.read(o, localKernel)
	for i := 0; i < cfg.setups || (i < maxSetups && time.Since(begin) < budget); i++ {
		if i > 0 && i%setupsPerCalibration == 0 {
			o.cal.read(o, localKernel)
		}
		t0 := time.Now()
		s, err := newSimulation(inputs[i%len(inputs)])
		if err != nil {
			return err
		}
		o.cal.addTime("setup_s", time.Since(t0).Seconds())
		s.Close()
	}
	o.cal.read(o, localKernel)

	chk := resultCheck{own: cfg.seed}
	// Allocations are summed over each whole cycle through the inputs, so
	// every sample covers the same requests.
	var allocs, allocBytes uint64
	var arrivals int
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for rep := 0; rep < 2*len(inputs) || time.Now().Before(deadline); rep++ {
		in := inputs[rep%len(inputs)]
		r, err := runRep(exe, w, in.Seed, cfg)
		if err != nil {
			return err
		}
		o.cal.addTime("run_s", r.RunSeconds)
		o.cal.read(o, localKernel)
		o.add("peak_rss_mb", float64(r.MaxRSSKB)/1024)
		o.attempted++
		res, ok := chk.add(o, rep, in.Seed, r.Result)
		if !ok {
			o.failed++
		}
		allocs += r.AllocObjects
		allocBytes += r.AllocBytes
		arrivals += res.Arrivals
		if (rep+1)%len(inputs) == 0 {
			o.add("allocs_per_req", float64(allocs)/float64(max(arrivals, 1)))
			o.add("bytes_per_req", float64(allocBytes)/float64(max(arrivals, 1)))
			allocs, allocBytes, arrivals = 0, 0, 0
		}
	}
	if !checkDigest(o, w, cfg.seed, chk.first[cfg.seed]) {
		o.failed = o.attempted
	}
	noteResult(o, chk.shown)
	return nil
}

// repReport is what a repetition child prints: the host time and
// allocations of Finish, the process's peak RSS and the Result.
type repReport struct {
	RunSeconds   float64         `json:"runSeconds"`
	AllocObjects uint64          `json:"allocObjects"`
	AllocBytes   uint64          `json:"allocBytes"`
	MaxRSSKB     int64           `json:"maxRssKb"`
	Result       json.RawMessage `json:"result"`
}

// repMain runs the repetition child: it sets up the workload's spec at
// the given seed, runs it to its Result and prints a repReport.
func repMain(args []string) int {
	fset := flag.NewFlagSet("rep", flag.ContinueOnError)
	name := fset.String("workload", "", "workload whose spec to run")
	var cfg runConfig
	fset.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fset.IntVar(&cfg.requests, "requests", 0, "request count override (0 keeps the spec's)")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "rep: unknown workload %q\n", *name)
		return 2
	}
	spec, err := loadSpec(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rep:", err)
		return 1
	}
	s, err := newSimulation(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rep:", err)
		return 1
	}
	before := readProcStats()
	t0 := time.Now()
	res := s.Finish()
	elapsed := time.Since(t0)
	after := readProcStats()
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rep: encoding result:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(repReport{
		RunSeconds:   elapsed.Seconds(),
		AllocObjects: after.AllocObjects - before.AllocObjects,
		AllocBytes:   after.AllocBytes - before.AllocBytes,
		MaxRSSKB:     after.MaxRSSKB,
		Result:       raw,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "rep:", err)
		return 1
	}
	return 0
}

// runRep runs one repetition child and waits for it to exit.
func runRep(exe string, w workload, seed int64, cfg runConfig) (repReport, error) {
	var r repReport
	cmd := exec.Command(exe, "-rep", "-workload", w.Name, "-seed", fmt.Sprint(seed), "-requests", fmt.Sprint(cfg.requests))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("repetition at seed %d: %w", seed, err)
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return r, fmt.Errorf("repetition at seed %d: decoding its report: %w", seed, err)
	}
	return r, nil
}

// resultCheck is the in-process correctness oracle: every repetition of
// an input must encode its Result to the same bytes, and every arrival
// must be accounted for once the run drains.
type resultCheck struct {
	// own is the run's seed; its Result is the one pinned and shown.
	own   int64
	first map[int64][]byte // first Result JSON per input seed
	shown pcs.Result
}

// add checks one repetition's Result JSON, returning the Result and
// whether it passed.
func (c *resultCheck) add(o *outcome, rep int, seed int64, raw []byte) (pcs.Result, bool) {
	var res pcs.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		o.problem("repetition %d: decoding result: %v", rep, err)
		return res, false
	}
	if seed == c.own {
		c.shown = res
	}
	ok := true
	if res.Arrivals == 0 || res.Arrivals != res.Completed+res.Failed+res.TimedOut {
		o.problem("repetition %d: %d arrivals != %d completed + %d failed + %d timed out",
			rep, res.Arrivals, res.Completed, res.Failed, res.TimedOut)
		ok = false
	}
	if c.first == nil {
		c.first = make(map[int64][]byte)
	}
	if first, seen := c.first[seed]; !seen {
		c.first[seed] = raw
	} else if !bytes.Equal(raw, first) {
		o.problem("repetition %d: result at seed %d differs from its first repetition", rep, seed)
		ok = false
	}
	return res, ok
}

// noteResult records the simulated-time outputs for the summary.
func noteResult(o *outcome, r pcs.Result) {
	o.note("simulated: p99 component %.4f ms, avg overall %.4f ms, %d arrivals, %d migrations",
		r.P99ComponentMs, r.AvgOverallMs, r.Arrivals, r.Migrations)
}

// digestFile holds the pinned sha256 of each workload's canonical output
// per seed: a Result's JSON in process, the pool's report JSON when
// served.
const digestFile = "digests.json"

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func loadDigests() (map[string]map[string]string, error) {
	data, err := os.ReadFile(digestFile)
	if err != nil {
		return nil, fmt.Errorf("reading pinned digests: %w", err)
	}
	var d map[string]map[string]string
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", digestFile, err)
	}
	return d, nil
}

// checkDigest fails the run when a digest is pinned for (workload, seed)
// and the output's differs; unpinned seeds pass.
func checkDigest(o *outcome, w workload, seed int64, output []byte) bool {
	pins, err := loadDigests()
	if err != nil {
		o.problem("%v", err)
		return false
	}
	want, ok := pins[w.Name][fmt.Sprint(seed)]
	if !ok || output == nil {
		return true
	}
	if got := digest(output); got != want {
		o.problem("output digest %s != pinned %s (seed %d)", got[:12], want[:12], seed)
		return false
	}
	return true
}

// tickGap separates a data slice from the tick instant after it: every
// monitor, demand and scheduling tick fires on a whole simulated second,
// so RunTo(t - tickGap) then RunTo(t) brackets the control-plane work at t.
const tickGap = 1e-6

// snapshotEvery is the simulated seconds between the traced repetition's
// snapshots. A snapshot re-summarises every latency recorded so far, so
// taking one per second would dominate the pass and its garbage.
const snapshotEvery = 5

// tracedRep runs one repetition of the spec in slices with spans around
// each call into the simulation and records the sliced per-layer metrics.
// It returns the finished simulation for the layer benchmarks and the host
// time of the set-up and slices, snapshots excluded.
func tracedRep(spec pcs.RunSpec, id int, tr *tracer, o *outcome) (*pcs.Simulation, pcs.Result, time.Duration, error) {
	root := tr.start("rep", id, 0)
	defer tr.end(root)
	timed := func(name string, parent int, fn func()) time.Duration {
		sp := tr.start(name, id, parent)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		tr.end(sp)
		return d
	}
	var s *pcs.Simulation
	var err error
	traced := timed("setup", root, func() { s, err = newSimulation(spec) })
	if err != nil {
		return nil, pcs.Result{}, 0, err
	}
	interval := s.Options().SchedulingInterval
	before := readProcStats()
	run := tr.start("run", id, root)
	var dataNs time.Duration
	var ticks, intervals []float64
	var pendingMax, queuedMax int
	var heapMax uint64
	for t := 1.0; s.Now() < s.Horizon(); t++ {
		stop := math.Min(t, s.Horizon())
		if pre := stop - tickGap; pre > s.Now() {
			dataNs += timed("data", run, func() { s.RunTo(pre) })
		}
		switch {
		case stop != t:
			dataNs += timed("data", run, func() { s.RunTo(stop) })
		case math.Mod(t, interval) == 0:
			d := timed("scheduler.interval", run, func() { s.RunTo(t) })
			intervals = append(intervals, ms(d))
			traced += d
		default:
			d := timed("monitor.tick", run, func() { s.RunTo(t) })
			ticks = append(ticks, ms(d))
			traced += d
		}
		// Observation sits between slices, in a span of its own, so its
		// cost is never part of the slice it follows.
		if math.Mod(t, snapshotEvery) == 0 || s.Now() >= s.Horizon() {
			timed("snapshot", run, func() {
				snap := s.Snapshot()
				pendingMax = max(pendingMax, snap.PendingEvents)
				queuedMax = max(queuedMax, snap.QueuedExecutions)
				heapMax = max(heapMax, readProcStats().HeapBytes)
			})
		}
	}
	var res pcs.Result
	traced += dataNs + timed("finish", run, func() { res = s.Finish() })
	tr.end(run)
	after := readProcStats()

	events := float64(s.Snapshot().FiredEvents)
	o.add("sim.events", events)
	o.add("sim.ns_per_event", float64(dataNs.Nanoseconds())/math.Max(events, 1))
	o.add("sim.pending_max", float64(pendingMax))
	o.add("service.data_ns_per_req", float64(dataNs.Nanoseconds())/float64(max(res.Arrivals, 1)))
	o.add("service.queued_max", float64(queuedMax))
	o.add("monitor.tick_ms_p50", median(ticks))
	o.add("scheduler.interval_ms_p50", median(intervals))
	o.add("scheduler.interval_ms_max", percentile(intervals, 100))
	o.add("scheduler.intervals", float64(res.SchedulingIntervals))
	o.add("scheduler.migrations", float64(res.Migrations))
	o.add("runtime.gc_cpu_frac", (after.GCCPUSeconds-before.GCCPUSeconds)/
		math.Max(after.BusyCPUSeconds-before.BusyCPUSeconds, 1e-9))
	o.add("runtime.heap_peak_mb", float64(heapMax)/(1<<20))
	return s, res, traced, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceWorkload is the per-layer pass: traced repetitions alternating
// with untraced ones as their reference, the layer benchmarks on the state
// the last traced one leaves, and the spec through the daemon.
func traceWorkload(w workload, spec pcs.RunSpec, cfg runConfig, tr *tracer, o *outcome) error {
	pool, err := buildPool(spec, cfg, w.served)
	if err != nil {
		return err
	}
	o.add("calib.kernel_ms", 1000*kernelReading(localKernel))
	var s *pcs.Simulation
	var untraced, traced []float64
	chk := resultCheck{own: cfg.seed}
	for rep := 0; rep < cfg.tracedReps; rep++ {
		t0 := time.Now()
		ref, err := newSimulation(spec)
		if err != nil {
			return err
		}
		ref.Finish()
		untraced = append(untraced, time.Since(t0).Seconds())
		o.attempted++
		var res pcs.Result
		var d time.Duration
		if s, res, d, err = tracedRep(spec, 1+rep, tr, o); err != nil {
			return err
		}
		traced = append(traced, d.Seconds())
		raw, err := json.Marshal(res)
		if err != nil {
			return fmt.Errorf("encoding result: %w", err)
		}
		if _, ok := chk.add(o, rep, cfg.seed, raw); !ok {
			o.failed++
		}
	}
	o.add("trace.overhead_frac", median(traced)/median(untraced)-1)
	digestInput := chk.first[cfg.seed]
	if w.served {
		digestInput = pool.digestInput()
	}
	if !checkDigest(o, w, cfg.seed, digestInput) {
		o.failed = o.attempted
	}
	noteResult(o, chk.shown)
	if err := measureLayers(s, cfg, tr, o); err != nil {
		return err
	}
	// A served spec's local reference is its report over every
	// replication; otherwise it is the untraced repetition.
	local := median(untraced)
	if w.served {
		local = median(pool.localSeconds)
	}
	return traceServed(pool, cfg, w.served, 1000*local, tr, o)
}
