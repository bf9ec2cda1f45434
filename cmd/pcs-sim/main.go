// Command pcs-sim runs one simulation of a multi-stage service under a
// chosen technique and prints a full latency report.
//
// Usage:
//
//	pcs-sim -technique PCS -rate 200 -requests 20000 -seed 1
//	pcs-sim -scenario ecommerce -technique PCS
//	pcs-sim -technique Basic -replications 16
//	pcs-sim -technique Basic -ci-target 0.05
//	pcs-sim -technique Basic -sample-interval 1              # print the run's time-series
//	pcs-sim -scenario autoscale-burst                        # closed-loop: scenario's scripted policy
//	pcs-sim -scenario autoscale-burst -policy none           # the same run open-loop
//	pcs-sim -policy pid-throttle -rate 300                   # admission throttling on any scenario
//	pcs-sim -replications 32 -stream runs.ndjson             # per-replication NDJSON to disk
//	pcs-sim -merge runs.ndjson                               # re-aggregate a stored stream
//	pcs-sim -spec-file run.json                              # run a stored RunSpec
//	pcs-sim -spec-file run.json -json                        # canonical report JSON (daemon-identical)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/cliutil"
	"repro/internal/metrics"
	"repro/pcs"
)

func main() {
	log.SetFlags(0)
	sf := cliutil.AddSpec(flag.CommandLine).AddRun().AddReplication().AddTuning()
	var (
		prof        = cliutil.AddProfile(flag.CommandLine)
		ciTarget    = flag.Float64("ci-target", 0, "adaptive replications: replicate until the relative CI95 half-width\nof both headline metrics falls below this (e.g. 0.05 for ±5%); 0 disables")
		maxReps     = flag.Int("max-replications", 64, "hard replication cap for -ci-target")
		sampleEvery = flag.Float64("sample-interval", 0, "sample a Snapshot every this many virtual seconds during a single run\nand print the time-series after the report; 0 disables. Sampling never\nchanges the results")
		streamPath  = flag.String("stream", "", "with -replications or -ci-target: write each replication's result to this\nfile as NDJSON instead of holding all of them in memory")
		mergePath   = flag.String("merge", "", "aggregate an NDJSON file written by pcs-sim -stream and exit (no simulation).\nA pcs-sweep -stream file holds the same frames for every cell, cell after\ncell, so its replication indices repeat: merge one cell's lines at a time")
		jsonOut     = flag.Bool("json", false, "print the canonical aggregate report as JSON — the RunSpec.Report\nencoding pcs-serve returns for the same spec — instead of the tables")
	)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	if *mergePath != "" {
		f, err := os.Open(*mergePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		agg, err := pcs.MergeStream(f)
		if err != nil {
			log.Fatal(err, "\n(a pcs-sweep -stream file is one frame stream per cell, cell after cell: "+
				"merge one cell's lines at a time)")
		}
		if *jsonOut {
			printJSON(agg)
		} else {
			printAggregate(agg)
		}
		return
	}

	spec, err := sf.Spec()
	if err != nil {
		log.Fatal(err)
	}
	// Resolve once, so a -graph-file is read here rather than once per
	// replication.
	if spec, err = spec.Options(); err != nil {
		log.Fatal(err)
	}
	replications, workers := spec.Replications, spec.Workers
	if replications <= 0 {
		replications = 1
	}
	if *sampleEvery > 0 && (replications > 1 || *ciTarget > 0) {
		log.Fatal("-sample-interval applies to a single run: drop -replications/-ci-target " +
			"(or watch a replication live with pcs-live)")
	}
	if *jsonOut {
		if *ciTarget > 0 || *sampleEvery > 0 || *streamPath != "" {
			log.Fatal("-json prints the spec's canonical report: drop -ci-target/-sample-interval/-stream")
		}
		agg, err := spec.Report()
		if err != nil {
			log.Fatal(err)
		}
		printJSON(agg)
		return
	}

	var sink *os.File
	if *streamPath != "" {
		if replications <= 1 && *ciTarget <= 0 {
			log.Fatal("-stream needs -replications or -ci-target: a single run has nothing to stream")
		}
		var err error
		sink, err = os.Create(*streamPath)
		if err != nil {
			log.Fatal(err)
		}
		defer sink.Close()
	}

	if *ciTarget > 0 {
		if replications > 1 {
			log.Fatal("-replications and -ci-target are mutually exclusive: " +
				"use -replications for a fixed count or -ci-target to stop on CI width")
		}
		target := pcs.CITarget{
			RelHalfWidth:    *ciTarget,
			MaxReplications: *maxReps,
			Workers:         workers,
		}
		if sink != nil {
			target.Sink = sink
		}
		agg, err := pcs.RunUntil(spec, target)
		if err != nil {
			log.Fatal(err)
		}
		printAggregate(agg)
		if agg.Converged {
			fmt.Printf("\nconverged: relative CI95 ≤ %.1f%% after %d replications\n",
				100**ciTarget, agg.Replications)
		} else {
			fmt.Printf("\nNOT converged: CI target %.1f%% missed at the %d-replication cap\n",
				100**ciTarget, agg.Replications)
		}
		if sink != nil {
			fmt.Printf("\nper-replication results streamed to %s (merge with -merge)\n", *streamPath)
		}
		return
	}
	if replications > 1 {
		var emit func(int, pcs.StreamedRun) error
		if sink != nil {
			emit = pcs.StreamTo(sink)
		}
		aggs, err := pcs.RunCells([]pcs.RunSpec{spec}, workers, emit)
		if err != nil {
			log.Fatal(err)
		}
		printAggregate(aggs[0])
		if sink != nil {
			fmt.Printf("\nper-replication results streamed to %s (merge with -merge)\n", *streamPath)
		}
		return
	}

	sim, err := pcs.NewSimulation(spec)
	if err != nil {
		log.Fatal(err)
	}
	series := metrics.NewSeries[pcs.Snapshot](512)
	if *sampleEvery > 0 {
		if err := sim.SampleEvery(*sampleEvery, func(sn pcs.Snapshot) {
			series.Observe(sn.Now, sn)
		}); err != nil {
			log.Fatal(err)
		}
	}
	res := sim.Finish()
	res.WriteReport(os.Stdout)
	if *sampleEvery > 0 {
		printSeries(series)
	}
	printPolicyLog(sim)
}

// printPolicyLog renders the closed-loop action log of a single run: every
// actuation the policy applied, with its reason.
func printPolicyLog(sim *pcs.Simulation) {
	log := sim.PolicyLog()
	if len(log) == 0 {
		return
	}
	fmt.Printf("\npolicy %s applied %d actions\n", sim.PolicyName(), len(log))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "t(s)\taction\tvalue\treason")
	for _, a := range log {
		fmt.Fprintf(tw, "%.1f\t%s\t%g\t%s\n", a.T, a.Kind, a.Value, a.Reason)
	}
	tw.Flush()
}

// printSeries renders the sampled time-series as a compact table: at most
// 16 evenly spaced rows of the retained (already decimated) samples.
func printSeries(series *metrics.Series[pcs.Snapshot]) {
	samples := series.Samples()
	if len(samples) == 0 {
		return
	}
	fmt.Printf("\ntime-series (%d samples retained of %d taken)\n", series.Len(), series.Offered())
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "t(s)\tλ adm\tarrived\tdone\tin-flight\tqueued\tutil µ/max\tavg ms\tp99 comp ms")
	step := 1
	if len(samples) > 16 {
		step = (len(samples) + 15) / 16
	}
	row := func(sn pcs.Snapshot) {
		fmt.Fprintf(tw, "%.1f\t%.0f\t%d\t%d\t%d\t%d\t%.2f/%.2f\t%.3f\t%.3f\n",
			sn.Now, sn.AdmittedRate, sn.Arrivals, sn.Completed, sn.InFlight,
			sn.QueuedExecutions, sn.MeanCoreUtilization, sn.MaxCoreUtilization,
			sn.AvgOverallMs, sn.P99ComponentMs)
	}
	last := len(samples) - 1
	for i := 0; i < last; i += step {
		row(samples[i].Value)
	}
	row(samples[last].Value) // end-of-run state always shown
	tw.Flush()
}

// printJSON prints an aggregate in the canonical report encoding: the
// MergeStream-normal form (execution-detail fields zeroed), indented, so
// the bytes diff cleanly against a pcs-serve response for the same spec.
func printJSON(agg pcs.Aggregate) {
	agg.Workers = 0
	agg.Runs = nil
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(agg); err != nil {
		log.Fatal(err)
	}
}

// printAggregate renders a multi-replication run: across-replication means
// with 95 % confidence intervals plus the per-replication spread.
func printAggregate(agg pcs.Aggregate) {
	fmt.Printf("technique           %s\n", agg.Technique)
	fmt.Printf("scenario            %s\n", agg.Scenario)
	fmt.Printf("arrival rate        %.0f req/s\n", agg.ArrivalRate)
	fmt.Printf("replications        %d (on %d workers)\n", agg.Replications, agg.Workers)
	fmt.Printf("requests            %d arrived, %d completed (all replications)\n", agg.Arrivals, agg.Completed)
	fmt.Println()
	row := func(name string, m pcs.MetricSummary) {
		fmt.Printf("%-24s %10.3f ± %.3f ms   (p50 %.3f, p99 %.3f, min %.3f, max %.3f)\n",
			name, m.Mean, m.CI95, m.P50, m.P99, m.Min, m.Max)
	}
	row("avg overall latency", agg.AvgOverallMs)
	row("p99 component latency", agg.P99ComponentMs)
	row("overall p50", agg.OverallP50Ms)
	row("overall p99", agg.OverallP99Ms)
	row("component mean", agg.ComponentMeanMs)
	if agg.Migrations > 0 {
		fmt.Println()
		fmt.Printf("migrations enforced       %d (all replications)\n", agg.Migrations)
	}
}
