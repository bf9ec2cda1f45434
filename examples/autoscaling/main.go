// Command autoscaling demonstrates the closed-loop policy layer: the same
// burst-hit deployment (the autoscale-burst scenario — nutch-search with a
// 3.5× arrival burst through the middle of the run) is simulated twice,
// once open-loop and once with the threshold autoscaler activating extra
// component replicas as queue pressure moves. The example prints each
// actuation the policy applied, the replica count the snapshots observed,
// and the paired latency comparison — paired meaning both runs share one
// seed, so the policy is the only difference between them.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/pcs"
)

func main() {
	log.SetFlags(0)
	policyName := flag.String("policy", "threshold-autoscale", pcs.PolicyFlagUsage())
	scenarioName := flag.String("scenario", "autoscale-burst", pcs.ScenarioFlagUsage())
	rate := flag.Float64("rate", 100, "base request arrival rate (requests/second); the scenario's burst scales it")
	requests := flag.Int("requests", 6000, "number of requests to simulate")
	seed := flag.Int64("seed", 1, "random seed (shared by both runs — the comparison is paired)")
	flag.Parse()

	run := func(policy string) pcs.Result {
		sim, err := pcs.NewSimulation(pcs.RunSpec{
			Scenario:    *scenarioName,
			Policy:      policy,
			ArrivalRate: *rate,
			Requests:    *requests,
			Seed:        *seed,
		})
		if err != nil {
			log.Fatalf("building %s run: %v", policy, err)
		}
		maxReplicas := 1
		if err := sim.SampleEvery(sim.Horizon()/120, func(sn pcs.Snapshot) {
			if sn.ActiveReplicas > maxReplicas {
				maxReplicas = sn.ActiveReplicas
			}
		}); err != nil {
			log.Fatal(err)
		}
		res := sim.Finish()
		if name := sim.PolicyName(); name != "" {
			fmt.Printf("policy %s applied %d actions (peak %d active replicas/component):\n",
				name, len(sim.PolicyLog()), maxReplicas)
			for _, a := range sim.PolicyLog() {
				fmt.Printf("  t=%6.1fs  %s=%g  (%s)\n", a.T, a.Kind, a.Value, a.Reason)
			}
			fmt.Println()
		}
		return res
	}

	fmt.Printf("scenario %s · λ=%.0f req/s base · %d requests · seed %d\n\n",
		*scenarioName, *rate, *requests, *seed)
	closed := run(*policyName)
	open := run("none")

	fmt.Printf("%-22s %15s %15s\n", "", "open-loop", "closed-loop")
	row := func(name string, a, b float64) {
		fmt.Printf("%-22s %12.3f ms %12.3f ms   (%+.1f%%)\n", name, a, b, 100*(b/a-1))
	}
	row("avg overall latency", open.AvgOverallMs, closed.AvgOverallMs)
	row("p99 component latency", open.P99ComponentMs, closed.P99ComponentMs)
	row("overall p99", open.OverallP99Ms, closed.OverallP99Ms)
}
