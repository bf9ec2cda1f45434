// Command searchengine reproduces the paper's primary scenario: a
// Nutch-style three-stage web search service (segmenting → searching ×100
// → aggregating) co-located with a churning mix of Hadoop and Spark batch
// jobs on 30 nodes, compared across all six latency-reduction techniques.
//
// This is a scaled-down interactive version of the Fig. 6 sweep (one
// arrival rate, all techniques); use cmd/pcs-sweep for the full figure.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/pcs"
)

func main() {
	log.SetFlags(0)
	scenarioName := flag.String("scenario", "", pcs.ScenarioFlagUsage())
	rate := flag.Float64("rate", 200, "request arrival rate (requests/second)")
	requests := flag.Int("requests", 12000, "requests per technique run")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	if *scenarioName == "" {
		fmt.Printf("Nutch search engine: 3 stages, 100 searching components, 30 nodes\n")
		fmt.Printf("Batch interference: Hadoop/Spark jobs, 1 MB–10 GB inputs, ~2 jobs/node\n")
	} else {
		fmt.Printf("scenario %s\n", *scenarioName)
	}
	fmt.Printf("λ=%.0f req/s, %d requests per run\n\n", *rate, *requests)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "technique\tavg overall (ms)\tp99 component (ms)\tmigrations")
	for _, tech := range pcs.Techniques() {
		res, err := pcs.Run(pcs.RunSpec{
			Technique:   tech,
			Scenario:    *scenarioName,
			ArrivalRate: *rate,
			Requests:    *requests,
			Seed:        *seed,
		})
		if err != nil {
			log.Fatalf("%s: %v", tech, err)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%d\n",
			res.Technique, res.AvgOverallMs, res.P99ComponentMs, res.Migrations)
	}
	tw.Flush()
	fmt.Println("\nExpected shape (paper Fig. 6): PCS lowest; redundancy helps only at")
	fmt.Println("light load and degrades beyond Basic as load grows, RED-5 worst;")
	fmt.Println("reissue degrades more gracefully than redundancy.")
}
