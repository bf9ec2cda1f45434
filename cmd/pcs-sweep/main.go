// Command pcs-sweep regenerates the paper's Fig. 6: average overall service
// latency and 99th-percentile component latency for Basic, RED-3, RED-5,
// RI-90, RI-99 and PCS across the six arrival rates, plus the headline
// aggregate reductions (paper: −67.05 % p99 component latency and −64.16 %
// average overall latency versus the redundancy/reissue techniques).
//
// The sweep runs any registered scenario (-scenario) and any technique
// subset (-techniques); the defaults reproduce the paper's figure. Every
// field of -spec-file is part of each cell, exactly as pcs-serve runs it.
// With -stream, every individual run of the sweep is additionally written
// to a file as one pcs.StreamedRun NDJSON line (replication, seed, full
// result), cell after cell in canonical order — the bytes
// serve.WriteFrames archives for the same cells — so huge sweeps leave a
// per-run record on disk.
//
// -policy runs every cell under a closed-loop policy ("none" forces the
// scenario's scripted policy off). -policies switches to the policy
// comparison driver instead: a policy × technique grid on one scenario at
// one rate, with deltas against the open-loop baseline —
//
//	pcs-sweep -scenario autoscale-burst -policies none,threshold-autoscale \
//	    -techniques Basic,PCS -rates 100
//
// -remote fans the sweep out over a fleet of pcs-serve daemons instead of
// running locally: the canonical cells shard round-robin across the listed
// base URLs, each cell's NDJSON frame stream comes back over SSE and is
// merged centrally, and a daemon that dies mid-sweep has its shard retried
// on the survivors. Because the cell→seed derivation lives in
// pcs.SweepSpec.Cells, the fleet's reports are byte-identical to a local
// run of the same sweep —
//
//	pcs-sweep -remote http://a:8344,http://b:8344 -rates 10,20,50
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/pcs"
)

func main() {
	log.SetFlags(0)
	sf := cliutil.AddSpec(flag.CommandLine).AddReplication()
	var (
		rates      = flag.String("rates", "10,20,50,100,200,500", "comma-separated arrival rates")
		techniques = flag.String("techniques", "", "comma-separated technique subset (empty = all six)")
		policyList = flag.String("policies", "", "run the closed-loop policy comparison instead of the Fig. 6 sweep:\ncomma-separated policies × techniques on the first -rates value\n(\"none\" is the open-loop baseline; \"all\" selects none + every\nregistered policy)")
		streamPath = flag.String("stream", "", "write every run of the sweep to this file as NDJSON pcs.StreamedRun\nframes (replication, seed, full result), cell after cell, alongside the\naggregated tables")
		remotes    = flag.String("remote", "", "fan the sweep out across these pcs-serve daemons (comma-separated base\nURLs) instead of running locally: cells shard round-robin, stream back\nover SSE and merge centrally — reports byte-identical to a local run")
	)
	flag.Parse()

	spec, err := sf.Spec()
	if err != nil {
		log.Fatal(err)
	}
	rateList, err := cliutil.ParseRates(*rates)
	if err != nil {
		log.Fatal(err)
	}
	techList, err := cliutil.ParseTechniques(*techniques)
	if err != nil {
		log.Fatal(err)
	}
	// The graph travels inline, so a daemon never opens a path named by
	// its client, and every cell reads the file's content once.
	if spec, err = spec.Options(); err != nil {
		log.Fatal(err)
	}
	sweep := sweepSpec(spec, techList, rateList)

	if *remotes != "" {
		workers, err := cliutil.ParseRemotes(*remotes)
		if err != nil {
			log.Fatal(err)
		}
		if *policyList != "" || *streamPath != "" {
			log.Fatal("-remote runs the spec sweep only; -policies and -stream are local-mode flags")
		}
		runRemote(sweep, workers)
		return
	}

	var stream io.Writer
	var file *os.File
	if *streamPath != "" {
		if file, err = os.Create(*streamPath); err != nil {
			log.Fatal(err)
		}
		stream = file
	}
	if *policyList != "" {
		var pols []string
		if *policyList != "all" {
			for _, p := range strings.Split(*policyList, ",") {
				pols = append(pols, strings.TrimSpace(p))
			}
		}
		cfg := experiments.PolicyGridConfig{Base: spec, Techniques: techList, Policies: pols}
		cfg.Base.ArrivalRate = rateList[0]
		res, err := experiments.RunPolicyGrid(cfg, stream)
		if err != nil {
			log.Fatal(err)
		}
		res.WriteTable(os.Stdout)
	} else {
		res, err := experiments.RunFig6(sweep, stream)
		if err != nil {
			log.Fatal(err)
		}
		res.WriteTable(os.Stdout)
	}
	if file != nil {
		if err := file.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("per-run results streamed to %s\n", *streamPath)
	}
}

// sweepSpec is the one sweep both the local and the -remote paths run:
// the flags' RunSpec as the cell template over the technique (empty = all
// six) and rate axes.
func sweepSpec(base pcs.RunSpec, techList []pcs.Technique, rates []float64) pcs.SweepSpec {
	if len(techList) == 0 {
		techList = pcs.Techniques()
	}
	return pcs.SweepSpec{Base: base, Techniques: techList, Rates: rates}
}

// runRemote dispatches the sweep across a pcs-serve fleet and prints the
// per-cell table from the centrally merged reports.
func runRemote(sweep pcs.SweepSpec, workers []string) {
	d := serve.SweepDispatch{Spec: sweep, Workers: workers}
	cells, err := d.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "technique\trate\tavg overall (ms)\tp99 component (ms)\tworker\tretries")
	for _, cell := range cells {
		fmt.Fprintf(tw, "%s\t%g\t%.3f ± %.3f\t%.3f ± %.3f\t%s\t%d\n",
			cell.Spec.Technique, cell.Spec.ArrivalRate,
			cell.Report.AvgOverallMs.Mean, cell.Report.AvgOverallMs.CI95,
			cell.Report.P99ComponentMs.Mean, cell.Report.P99ComponentMs.CI95,
			cell.Worker, cell.Retries)
	}
	tw.Flush()
	fmt.Printf("%d cells across %d daemons; reports merged centrally (byte-identical to a local sweep)\n",
		len(cells), len(workers))
}
