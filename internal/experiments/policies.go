package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/pcs"
)

// PolicyGridConfig parameterises the closed-loop policy comparison: a
// policy × technique grid on one scenario at one arrival rate, with
// "none" as the open-loop baseline column. It is the experiment the
// closed-loop layer exists for — does closing the loop beat the same
// deployment left open-loop?
type PolicyGridConfig struct {
	// Base is the cell template: deployment, traffic, rate, requests,
	// replications, workers and tuning. An unset deployment selects
	// "autoscale-burst" (the burst-elasticity scenario built for this
	// comparison), ArrivalRate 0 selects 100 req/s (scenario steering scripts
	// its bursts relative to it) and Requests 0 selects 20000. Its seed
	// is the grid's root: every cell derives its own from its technique.
	Base pcs.RunSpec
	// Techniques to run each policy under; nil means Basic and PCS (the
	// two wirings: no control loop vs the paper's scheduler, each with
	// and without the closed loop on top).
	Techniques []pcs.Technique
	// Policies are the closed-loop policies to compare; "none" is the
	// open-loop baseline. Nil selects "none" plus every registered policy.
	Policies []string
}

func (c PolicyGridConfig) withDefaults() PolicyGridConfig {
	if c.Base.Scenario == "" && c.Base.Graph == nil && c.Base.GraphFile == "" {
		c.Base.Scenario = "autoscale-burst"
	}
	if len(c.Policies) == 0 {
		c.Policies = append([]string{"none"}, pcs.Policies()...)
	}
	if len(c.Techniques) == 0 {
		c.Techniques = []pcs.Technique{pcs.Basic, pcs.PCS}
	}
	if c.Base.ArrivalRate <= 0 {
		c.Base.ArrivalRate = 100
	}
	if c.Base.Requests <= 0 {
		c.Base.Requests = 20000
	}
	return c
}

// PolicyGridResult holds the grid's cells, technique-major.
type PolicyGridResult struct {
	Cells []Cell
}

// Cell returns the measurement for a technique under a policy, or nil.
// The open-loop baseline is policy "none".
func (r PolicyGridResult) Cell(technique pcs.Technique, policyName string) *Cell {
	for i := range r.Cells {
		if r.Cells[i].Spec.Technique == technique && r.Cells[i].Spec.Policy == policyName {
			return &r.Cells[i]
		}
	}
	return nil
}

// RunPolicyGrid executes the policy × technique grid on pcs.RunCells.
// Every run's seed is a pure function of its (cell, replication)
// coordinates and each run builds a fresh policy instance, so the grid is
// deterministic for any worker or shard count — closed-loop runs included
// (determinism invariant #8). stream, when non-nil, receives every run as
// one pcs.StreamedRun frame, cell after cell.
func RunPolicyGrid(cfg PolicyGridConfig, stream io.Writer) (PolicyGridResult, error) {
	c := cfg.withDefaults()
	// A cell's seed depends on its technique's identity but NOT its
	// policy: the whole point of the grid is a paired comparison, so a
	// policy-on run must face exactly the arrival stream and batch
	// interference its open-loop baseline faced — the policy is the only
	// difference between the rows of one technique. Deriving from the
	// technique value (not its slice position) keeps a cell's numbers
	// stable when techniques are added or reordered.
	var cells []pcs.RunSpec
	for _, tech := range c.Techniques {
		for _, pol := range c.Policies {
			cell := c.Base
			cell.Technique = tech
			cell.Policy = pol
			cell.Seed = c.Base.Seed ^ int64(tech)<<16
			cells = append(cells, cell)
		}
	}
	out, err := runCells(cells, c.Base.Workers, stream)
	if err != nil {
		return PolicyGridResult{}, fmt.Errorf("experiments: policy grid: %w", err)
	}
	return PolicyGridResult{Cells: out}, nil
}

// meanActions is a cell's actuation count: the mean over its runs,
// rounded to nearest.
func meanActions(runs []pcs.Result) int {
	sum := 0
	for _, r := range runs {
		sum += r.PolicyActions
	}
	return (sum + len(runs)/2) / len(runs)
}

// WriteTable renders the grid: one row per (technique, policy) cell with
// the headline latency metrics, the actuation count, and the deltas
// against the technique's open-loop ("none") baseline — negative deltas
// mean the closed loop improved the metric.
func (r PolicyGridResult) WriteTable(w io.Writer) {
	if len(r.Cells) == 0 {
		return
	}
	first := r.Cells[0]
	fmt.Fprintf(w, "closed-loop policy grid · scenario %s · λ=%.0f req/s · %d replication(s)\n\n",
		first.Spec.Scenario, first.Spec.ArrivalRate, first.Report.Replications)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "technique\tpolicy\tavg overall ms\tp99 comp ms\tactions\tΔavg vs open-loop\tΔp99 vs open-loop")
	for _, cell := range r.Cells {
		avg, p99 := cell.Report.AvgOverallMs, cell.Report.P99ComponentMs
		fmt.Fprintf(tw, "%s\t%s", cell.Spec.Technique, cell.Spec.Policy)
		if avg.CI95 > 0 {
			fmt.Fprintf(tw, "\t%.3f±%.3f\t%.3f±%.3f", avg.Mean, avg.CI95, p99.Mean, p99.CI95)
		} else {
			fmt.Fprintf(tw, "\t%.3f\t%.3f", avg.Mean, p99.Mean)
		}
		fmt.Fprintf(tw, "\t%d", meanActions(cell.Report.Runs))
		base := r.Cell(cell.Spec.Technique, "none")
		if base != nil && cell.Spec.Policy != "none" && base.Report.AvgOverallMs.Mean > 0 && base.Report.P99ComponentMs.Mean > 0 {
			fmt.Fprintf(tw, "\t%+.1f%%\t%+.1f%%",
				100*(avg.Mean/base.Report.AvgOverallMs.Mean-1),
				100*(p99.Mean/base.Report.P99ComponentMs.Mean-1))
		} else {
			fmt.Fprint(tw, "\t-\t-")
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
