package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of a comparison, per workload and metric.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictInfo       = "info" // per-layer metrics carry no bound
)

// verdict judges candidate samples b against baseline samples a. A metric
// whose median is less certain than its bound on either side is
// unresolved, unless every candidate sample beats every baseline sample.
func verdict(d metricDef, a, b []float64) string {
	if d.Bound == 0 {
		return verdictInfo
	}
	sa, sb := summarize(a), summarize(b)
	change := (sb.Median - sa.Median) / math.Abs(sa.Median)
	if d.Better == "higher" {
		change = -change
	}
	if sa.medianSpread() > d.Bound || sb.medianSpread() > d.Bound {
		if allBetter(d, a, b) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case change > d.Bound:
		return verdictWorse
	case change < -d.Bound:
		return verdictBetter
	}
	return verdictWithin
}

// allBetter reports whether every sample of b beats every sample of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareFiles prints, per workload and metric present in both files,
// both medians with quartiles and a verdict, and returns how many
// end-to-end metrics got worse.
func compareFiles(pathA, pathB string, w io.Writer) (int, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return 0, err
	}
	for _, diff := range headerDiffs(a.Header, b.Header) {
		fmt.Fprintf(w, "warning: headers differ: %s\n", diff)
	}
	worse := 0
	fmt.Fprintf(w, "%-18s %-28s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "change", "bound", "verdict")
	for _, wl := range workloads {
		n := wl.Name
		ra, rb := a.Workloads[n], b.Workloads[n]
		if ra == nil || rb == nil {
			continue
		}
		for _, table := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range table {
				ma, mb := ra.Metrics[d.Name], rb.Metrics[d.Name]
				if ma == nil || mb == nil {
					continue
				}
				sa, sb := summarize(ma.Samples), summarize(mb.Samples)
				v := verdict(d, ma.Samples, mb.Samples)
				if v == verdictWorse {
					worse++
				}
				fmt.Fprintf(w, "%-18s %-28s %12.6g %25s %12.6g %25s %+7.1f%% %5.0f%%  %s\n",
					n, d.Name, sa.Median, fmt.Sprintf("[%.6g, %.6g]", sa.Q1, sa.Q3),
					sb.Median, fmt.Sprintf("[%.6g, %.6g]", sb.Q1, sb.Q3),
					100*(sb.Median-sa.Median)/math.Abs(sa.Median), 100*d.Bound, v)
			}
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-18s correctness: a %v, b %v\n", n, ra.Correct, rb.Correct)
		}
	}
	return worse, nil
}

// headerDiffs lists the environment fields that differ between two
// result files. The commit is expected to differ and is not listed.
func headerDiffs(a, b header) []string {
	var out []string
	add := func(field string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s %v vs %v", field, x, y))
		}
	}
	add("goVersion", a.GoVersion, b.GoVersion)
	add("nproc", a.NumCPU, b.NumCPU)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("cpuModel", a.CPUModel, b.CPUModel)
	add("seed", a.Seed, b.Seed)
	add("pass", a.Pass, b.Pass)
	add("seconds", a.Seconds, b.Seconds)
	return out
}
