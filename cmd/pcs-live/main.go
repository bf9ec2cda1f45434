// Command pcs-live runs one simulation and renders its metrics time-series
// as a live terminal dashboard: progress, arrival rate, throughput, latency
// quantiles, utilization, queue depth and failure state, each as a
// sparkline over the whole run so far. It is the interactive face of the
// observability layer — the same Snapshot sampling the library exposes via
// Simulation.SampleEvery, drawn at a wall-clock frame rate while virtual
// time advances underneath.
//
// Usage:
//
//	pcs-live -technique PCS -scenario node-failure
//	pcs-live -scenario diurnal-load -throttle 10   # 10 virtual s per wall s
//	pcs-live -plain                                # line-per-sample, no ANSI
//
// Sampling and rendering are observationally free: the Result printed at
// the end is bit-identical to pcs-sim's for the same options.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/metrics"
	"repro/pcs"
)

func main() {
	log.SetFlags(0)
	sf := cliutil.AddSpec(flag.CommandLine).AddRun()
	var (
		sampleEvery = flag.Float64("sample-interval", 0, "virtual seconds between samples (0 = horizon/240)")
		refresh     = flag.Int("refresh", 80, "minimum wall-clock milliseconds between dashboard frames")
		throttle    = flag.Float64("throttle", 0, "virtual seconds simulated per wall-clock second (0 = as fast as possible)")
		plain       = flag.Bool("plain", false, "no ANSI dashboard: print one line per sample (default when stdout is not a terminal)")
		width       = flag.Int("width", 48, "sparkline width in columns")
		listOnly    = flag.Bool("list-scenarios", false, "print the registered scenario names, one per line, and exit\n(lets scripts — like the CI smoke — iterate the registry)")
	)
	flag.Parse()

	if *listOnly {
		for _, name := range pcs.Scenarios() {
			fmt.Println(name)
		}
		return
	}

	spec, err := sf.Spec()
	if err != nil {
		log.Fatal(err)
	}
	sim, err := pcs.NewSimulation(spec)
	if err != nil {
		log.Fatal(err)
	}

	dt := *sampleEvery
	if dt <= 0 {
		dt = sim.Horizon() / 240
	}
	ansi := !*plain && stdoutIsTerminal()
	d := &dashboard{
		sim:    sim,
		series: metrics.NewSeries[pcs.Snapshot](960),
		ansi:   ansi,
		width:  *width,
	}
	if err := sim.SampleEvery(dt, func(sn pcs.Snapshot) {
		d.series.Observe(sn.Now, sn)
		if !ansi {
			d.plainLine(sn)
		}
	}); err != nil {
		log.Fatal(err)
	}

	frameEvery := time.Duration(*refresh) * time.Millisecond
	lastFrame := time.Time{}
	wallStart := time.Now()
	for sim.Now() < sim.Horizon() {
		sim.RunTo(sim.Now() + dt)
		if *throttle > 0 {
			ahead := time.Duration(sim.Now()/(*throttle)*float64(time.Second)) - time.Since(wallStart)
			if ahead > 0 {
				time.Sleep(ahead)
			}
		}
		if ansi && time.Since(lastFrame) >= frameEvery {
			d.frame()
			lastFrame = time.Now()
		}
	}
	res := sim.Finish()
	if ansi {
		d.frame()
	}
	fmt.Println()
	res.WriteReport(os.Stdout)
}

// stdoutIsTerminal reports whether stdout is a character device — the
// cheap, dependency-free TTY test.
func stdoutIsTerminal() bool {
	fi, err := os.Stdout.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// dashboard renders the run: either as redrawn ANSI frames or as plain
// line-per-sample output.
type dashboard struct {
	sim           *pcs.Simulation
	series        *metrics.Series[pcs.Snapshot]
	ansi          bool
	width         int
	drawn         int // lines of the previous frame, for the cursor rewind
	loggedActions int // policy actions already printed in plain mode
}

// plainLine prints one sample as a single log line, preceded by any policy
// actions applied since the previous sample.
func (d *dashboard) plainLine(sn pcs.Snapshot) {
	log := d.sim.PolicyLog()
	for ; d.loggedActions < len(log); d.loggedActions++ {
		a := log[d.loggedActions]
		fmt.Printf("t=%8.2fs policy %s: %s=%g (%s)\n", a.T, d.sim.PolicyName(), a.Kind, a.Value, a.Reason)
	}
	fmt.Printf("t=%8.2fs λadm=%6.1f arrived=%7d done=%7d inflight=%5d queued=%5d util=%.2f/%.2f failed=%d avg=%7.3fms p99c=%7.3fms",
		sn.Now, sn.AdmittedRate, sn.Arrivals, sn.Completed, sn.InFlight,
		sn.QueuedExecutions, sn.MeanCoreUtilization, sn.MaxCoreUtilization,
		sn.FailedNodes, sn.AvgOverallMs, sn.P99ComponentMs)
	if d.sim.PolicyName() != "" {
		fmt.Printf(" replicas=%d work=%.2f admit=%.2f", sn.ActiveReplicas, sn.WorkFactor, sn.AdmissionFactor)
	}
	fmt.Println()
}

// frame redraws the ANSI dashboard in place.
func (d *dashboard) frame() {
	samples := d.series.Samples()
	if len(samples) == 0 {
		return
	}
	last := samples[len(samples)-1].Value
	var b strings.Builder
	if d.drawn > 0 {
		fmt.Fprintf(&b, "\x1b[%dA", d.drawn) // rewind to the frame top
	}
	line := func(format string, args ...any) {
		b.WriteString(fmt.Sprintf(format, args...))
		b.WriteString("\x1b[K\n") // clear stale tail of the line
	}

	opts := d.sim.Options()
	progress := last.Now / last.Horizon
	line("pcs-live · scenario %s · technique %s · seed %d", d.sim.Scenario(), opts.Technique, opts.Seed)
	line("t %8.1fs / %.1fs  [%s] %5.1f%%", last.Now, last.Horizon,
		metrics.Gauge(progress, 24), 100*progress)
	line("arrivals %-8d completed %-8d in-flight %-6d migrations %-5d batch jobs %-5d failed nodes %d",
		last.Arrivals, last.Completed, last.InFlight, last.Migrations,
		last.BatchJobsStarted, last.FailedNodes)
	row := func(name string, vals []float64, cur string) {
		line("%-16s %s  %s", name, metrics.Sparkline(vals, d.width), cur)
	}
	row("λ adm req/s", metrics.Values(samples, func(s pcs.Snapshot) float64 { return s.AdmittedRate }),
		fmt.Sprintf("%7.1f", last.AdmittedRate))
	thr := metrics.Rates(samples, func(s pcs.Snapshot) float64 { return float64(s.Completed) })
	row("done req/s", thr, fmt.Sprintf("%7.1f", thr[len(thr)-1]))
	row("avg overall ms", metrics.Values(samples, func(s pcs.Snapshot) float64 { return s.AvgOverallMs }),
		fmt.Sprintf("%7.3f", last.AvgOverallMs))
	row("p99 comp ms", metrics.Values(samples, func(s pcs.Snapshot) float64 { return s.P99ComponentMs }),
		fmt.Sprintf("%7.3f", last.P99ComponentMs))
	row("core util mean", metrics.Values(samples, func(s pcs.Snapshot) float64 { return s.MeanCoreUtilization }),
		fmt.Sprintf("%4.2f  [%s] max %.2f", last.MeanCoreUtilization,
			metrics.Gauge(last.MaxCoreUtilization, 10), last.MaxCoreUtilization))
	row("queued execs", metrics.Values(samples, func(s pcs.Snapshot) float64 { return float64(s.QueuedExecutions) }),
		fmt.Sprintf("%7d", last.QueuedExecutions))
	if name := d.sim.PolicyName(); name != "" {
		row("active replicas", metrics.Values(samples, func(s pcs.Snapshot) float64 { return float64(s.ActiveReplicas) }),
			fmt.Sprintf("%7d  work %.2f  admit %.0f%%", last.ActiveReplicas, last.WorkFactor,
				100*last.AdmissionFactor))
		log := d.sim.PolicyLog()
		annot := "—"
		if n := len(log); n > 0 {
			a := log[n-1]
			annot = fmt.Sprintf("t=%.1fs %s=%g (%s)", a.T, a.Kind, a.Value, a.Reason)
		}
		line("policy %s · %d actions · last: %s", name, len(log), annot)
	}

	d.drawn = strings.Count(b.String(), "\x1b[K\n")
	os.Stdout.WriteString(b.String())
}
