package experiments

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"repro/pcs"
)

// Cell is one measured grid cell of the Fig. 6 sweep or the policy grid:
// the RunSpec it ran and its across-replication aggregate. Report.Runs
// holds the cell's per-replication Results, in replication order.
type Cell struct {
	Spec   pcs.RunSpec
	Report pcs.Aggregate
}

// runCells executes the cells on pcs.RunCells, writing every run to stream
// (when non-nil) as one pcs.StreamedRun frame, cell after cell, and
// attaching each cell's runs to its Report.
func runCells(cells []pcs.RunSpec, workers int, stream io.Writer) ([]Cell, error) {
	write := func(int, pcs.StreamedRun) error { return nil }
	if stream != nil {
		write = pcs.StreamTo(stream)
	}
	runs := make([][]pcs.Result, len(cells))
	aggs, err := pcs.RunCells(cells, workers, func(cell int, run pcs.StreamedRun) error {
		runs[cell] = append(runs[cell], run.Result)
		return write(cell, run)
	})
	if err != nil {
		return nil, err
	}
	out := make([]Cell, len(cells))
	for i := range cells {
		aggs[i].Runs = runs[i]
		out[i] = Cell{Spec: cells[i], Report: aggs[i]}
	}
	return out, nil
}

// Fig6Result holds the service-performance sweep (§VI-C / Fig. 6) plus
// the paper's headline aggregates.
type Fig6Result struct {
	Cells []Cell
	// P99ReductionPct is PCS's average reduction in 99th-percentile
	// component latency versus the four redundancy/reissue techniques
	// across all rates (paper: 67.05 %).
	P99ReductionPct float64
	// OverallReductionPct is the same for average overall latency
	// (paper: 64.16 %).
	OverallReductionPct float64
}

// fig6Baselines are the redundancy and reissue techniques PCS's headline
// reductions are measured against.
var fig6Baselines = []pcs.Technique{pcs.RED3, pcs.RED5, pcs.RI90, pcs.RI99}

// Cell returns the measurement for a technique at a rate, or nil.
func (r Fig6Result) Cell(technique pcs.Technique, rate float64) *Cell {
	for i := range r.Cells {
		if r.Cells[i].Spec.Technique == technique && r.Cells[i].Spec.ArrivalRate == rate {
			return &r.Cells[i]
		}
	}
	return nil
}

// RunFig6 executes a sweep's cells — the paper's grid is all six
// techniques × λ ∈ {10, 20, 50, 100, 200, 500} — on pcs.RunCells, so a
// cell here is exactly the cell pcs-serve runs for POST /v1/sweeps and
// pcs-sweep -remote dispatches: same expansion (SweepSpec.Cells), same
// seeds, same fold. stream, when non-nil, receives every run as one
// pcs.StreamedRun frame, cell after cell (serve.WriteFrames' bytes).
func RunFig6(spec pcs.SweepSpec, stream io.Writer) (Fig6Result, error) {
	cells, err := spec.Cells()
	if err != nil {
		return Fig6Result{}, fmt.Errorf("experiments: fig6: %w", err)
	}
	out, err := runCells(cells, spec.Base.Workers, stream)
	if err != nil {
		return Fig6Result{}, fmt.Errorf("experiments: fig6: %w", err)
	}
	res := Fig6Result{Cells: out}
	res.P99ReductionPct, res.OverallReductionPct = res.headlineReductions()
	return res, nil
}

// axes lists the sweep's techniques and rates in expansion order.
func (r Fig6Result) axes() (techniques []pcs.Technique, rates []float64) {
	for _, c := range r.Cells {
		if !slices.Contains(techniques, c.Spec.Technique) {
			techniques = append(techniques, c.Spec.Technique)
		}
		if !slices.Contains(rates, c.Spec.ArrivalRate) {
			rates = append(rates, c.Spec.ArrivalRate)
		}
	}
	return techniques, rates
}

// headlineReductions computes the paper's headline aggregates: PCS's
// average reduction versus the redundancy and reissue techniques, averaged
// over arrival rates.
func (r Fig6Result) headlineReductions() (p99, overall float64) {
	var p99Sum, overallSum float64
	var n int
	for _, pcsCell := range r.Cells {
		if pcsCell.Spec.Technique != pcs.PCS {
			continue
		}
		for _, b := range fig6Baselines {
			bc := r.Cell(b, pcsCell.Spec.ArrivalRate)
			if bc == nil || bc.Report.P99ComponentMs.Mean <= 0 || bc.Report.AvgOverallMs.Mean <= 0 {
				continue
			}
			p99Sum += 100 * (1 - pcsCell.Report.P99ComponentMs.Mean/bc.Report.P99ComponentMs.Mean)
			overallSum += 100 * (1 - pcsCell.Report.AvgOverallMs.Mean/bc.Report.AvgOverallMs.Mean)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return p99Sum / float64(n), overallSum / float64(n)
}

// WriteTable renders the sweep as two tables (average overall latency and
// p99 component latency), one row per technique, one column per rate —
// the shape of the paper's Fig. 6. Cells aggregated over multiple
// replications are rendered as mean±CI95.
func (r Fig6Result) WriteTable(w io.Writer) {
	techniques, rates := r.axes()
	writeOne := func(title string, pick func(pcs.Aggregate) pcs.MetricSummary) {
		fmt.Fprintf(w, "%s (ms)\n", title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "technique")
		for _, rate := range rates {
			fmt.Fprintf(tw, "\tλ=%.0f", rate)
		}
		fmt.Fprintln(tw)
		for _, tech := range techniques {
			fmt.Fprint(tw, tech)
			for _, rate := range rates {
				m := pick(r.Cell(tech, rate).Report)
				if m.CI95 > 0 {
					fmt.Fprintf(tw, "\t%.2f±%.2f", m.Mean, m.CI95)
				} else {
					fmt.Fprintf(tw, "\t%.2f", m.Mean)
				}
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
	writeOne("Average overall service latency", func(a pcs.Aggregate) pcs.MetricSummary { return a.AvgOverallMs })
	writeOne("99th-percentile component latency", func(a pcs.Aggregate) pcs.MetricSummary { return a.P99ComponentMs })
	// The headline aggregate compares PCS against the redundancy/reissue
	// techniques; with a technique subset that lacks them there is nothing
	// to report.
	hasBaseline := slices.ContainsFunc(techniques, func(t pcs.Technique) bool { return slices.Contains(fig6Baselines, t) })
	if hasBaseline && slices.Contains(techniques, pcs.PCS) {
		fmt.Fprintf(w, "PCS reduction vs redundancy/reissue: p99 component %.2f%% (paper: 67.05%%), avg overall %.2f%% (paper: 64.16%%)\n",
			r.P99ReductionPct, r.OverallReductionPct)
	}
}
