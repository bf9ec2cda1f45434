// Command quickstart is the minimal PCS session: simulate a multi-stage
// service co-located with batch jobs, once under Basic execution and once
// under PCS, and compare the two latency metrics of the paper. The
// -scenario flag selects any registered deployment; the default is the
// paper's Nutch-style search service.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/pcs"
)

func main() {
	log.SetFlags(0)
	scenarioName := flag.String("scenario", "", pcs.ScenarioFlagUsage())
	rate := flag.Float64("rate", 100, "request arrival rate (requests/second)")
	requests := flag.Int("requests", 8000, "number of requests to simulate")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	fmt.Printf("λ=%.0f req/s, %d requests, seed %d\n\n", *rate, *requests, *seed)

	for _, tech := range []pcs.Technique{pcs.Basic, pcs.PCS} {
		res, err := pcs.Run(pcs.RunSpec{
			Technique:   tech,
			Scenario:    *scenarioName,
			ArrivalRate: *rate,
			Requests:    *requests,
			Seed:        *seed,
		})
		if err != nil {
			log.Fatalf("run %s: %v", tech, err)
		}
		fmt.Printf("%-6s %-12s avg overall %8.2f ms | p99 component %8.2f ms | completed %d/%d",
			res.Technique, res.Scenario, res.AvgOverallMs, res.P99ComponentMs, res.Completed, res.Arrivals)
		if tech == pcs.PCS {
			fmt.Printf(" | %d migrations over %d intervals", res.Migrations, res.SchedulingIntervals)
		}
		fmt.Println()
	}
}
