package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/xrand"
	"repro/pcs"
)

func TestFig5SmallRunMatchesPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 takes a few seconds")
	}
	res, err := RunFig5(Fig5Config{Seed: 1, HadoopSizes: 6, SparkSizes: 4, Probes: 80})
	if err != nil {
		t.Fatal(err)
	}
	// 3 Hadoop kinds × 6 sizes + 3 Spark kinds × 4 sizes.
	if len(res.Cases) != 30 {
		t.Fatalf("cases = %d, want 30", len(res.Cases))
	}
	// The paper's average error is 2.68 %; at reduced size we accept a
	// loose band that still catches a broken predictor.
	if res.MeanErrPct <= 0 || res.MeanErrPct > 10 {
		t.Fatalf("mean error = %.2f%%, outside sanity band (0, 10]", res.MeanErrPct)
	}
	if res.FracBelow8 < 0.7 {
		t.Fatalf("only %.0f%% of cases below 8%% error", 100*res.FracBelow8)
	}
	// Bands are nested by construction.
	if res.FracBelow3 > res.FracBelow5 || res.FracBelow5 > res.FracBelow8 {
		t.Fatal("error bands not nested")
	}
	for _, c := range res.Cases {
		if c.MeasuredMs <= 0 || c.PredictedMs <= 0 {
			t.Fatalf("non-positive latencies in case %+v", c)
		}
	}
}

func TestFig5TableRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 takes a few seconds")
	}
	res, err := RunFig5(Fig5Config{Seed: 2, HadoopSizes: 3, SparkSizes: 2, Probes: 50})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"hadoop-bayes", "spark-sort", "average error", "paper: 2.68%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 takes a few seconds")
	}
	a, err := RunFig5(Fig5Config{Seed: 3, HadoopSizes: 3, SparkSizes: 2, Probes: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig5(Fig5Config{Seed: 3, HadoopSizes: 3, SparkSizes: 2, Probes: 50})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanErrPct != b.MeanErrPct {
		t.Fatalf("same seed differs: %v vs %v", a.MeanErrPct, b.MeanErrPct)
	}
}

func TestFig6TinySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6 sweep is expensive")
	}
	spec := pcs.SweepSpec{
		Base:       pcs.RunSpec{Seed: 1, Requests: 1500, Nodes: 10, SearchComponents: 20},
		Rates:      []float64{50},
		Techniques: []pcs.Technique{pcs.Basic, pcs.PCS},
	}
	res, err := RunFig6(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	basic := res.Cell(pcs.Basic, 50)
	p := res.Cell(pcs.PCS, 50)
	if basic == nil || p == nil {
		t.Fatal("missing cells")
	}
	if basic.Report.AvgOverallMs.Mean <= 0 || p.Report.AvgOverallMs.Mean <= 0 {
		t.Fatal("latencies not measured")
	}
	if p.Report.Migrations == 0 {
		t.Error("PCS cell made no migrations")
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	// With no redundancy/reissue baselines in the subset there is nothing
	// for the headline aggregate to compare against, so it is omitted.
	if strings.Contains(sb.String(), "PCS reduction") {
		t.Fatalf("headline printed without baselines:\n%s", sb.String())
	}

	// A subset that includes a baseline prints the headline.
	spec.Techniques = []pcs.Technique{pcs.RED3, pcs.PCS}
	withBase, err := RunFig6(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	withBase.WriteTable(&sb)
	if !strings.Contains(sb.String(), "PCS reduction") {
		t.Fatalf("table missing headline:\n%s", sb.String())
	}
}

func TestFig6ScenarioSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6 sweep is expensive")
	}
	spec := pcs.SweepSpec{
		Base: pcs.RunSpec{Seed: 1, Scenario: "social-feed", Requests: 1200,
			Nodes: 10, SearchComponents: 24},
		Rates:      []float64{50},
		Techniques: []pcs.Technique{pcs.Basic},
	}
	res, err := RunFig6(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cell(pcs.Basic, 50)
	if cell == nil || cell.Report.Completed == 0 {
		t.Fatal("scenario sweep produced no results")
	}
	if cell.Report.Scenario != "social-feed" {
		t.Fatalf("cell scenario = %q", cell.Report.Scenario)
	}
	// The social-feed topology has four stages.
	if stages := cell.Report.Runs[0].StageMeanMs; len(stages) != 4 {
		t.Fatalf("stage means = %v", stages)
	}

	if _, err := RunFig6(pcs.SweepSpec{Base: pcs.RunSpec{Scenario: "bogus", Requests: 100},
		Rates: []float64{10}, Techniques: []pcs.Technique{pcs.Basic}}, nil); err == nil {
		t.Fatal("unknown scenario accepted by RunFig6")
	}
}

func TestFig5ScenarioSelectsDominantStage(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 takes a few seconds")
	}
	res, err := RunFig5(Fig5Config{Seed: 3, Scenario: "ecommerce", HadoopSizes: 3, SparkSizes: 2, Probes: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 15 {
		t.Fatalf("cases = %d, want 15", len(res.Cases))
	}
	if res.MeanErrPct <= 0 || res.MeanErrPct > 15 {
		t.Fatalf("mean error = %.2f%% outside sanity band", res.MeanErrPct)
	}
	if _, err := RunFig5(Fig5Config{Scenario: "bogus"}); err == nil {
		t.Fatal("unknown scenario accepted by RunFig5")
	}
}

func TestFig7SmallLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 timing is a second or two")
	}
	points, err := RunFig7(Fig7Config{
		Seed:    1,
		Points:  []Fig7Point{{M: 20, K: 4}, {M: 40, K: 8}},
		Repeats: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.AnalysisMs <= 0 {
			t.Fatalf("analysis time not measured at m=%d", p.M)
		}
		if p.TotalMs < p.AnalysisMs {
			t.Fatal("total < analysis")
		}
	}
	// Larger instances take longer to analyse (O(m²k) trend).
	if points[1].AnalysisMs <= points[0].AnalysisMs*0.5 {
		t.Errorf("scaling suspicious: m=20 %.3fms vs m=40 %.3fms",
			points[0].AnalysisMs, points[1].AnalysisMs)
	}
	var sb strings.Builder
	WriteFig7Table(&sb, points)
	if !strings.Contains(sb.String(), "551 ms") {
		t.Fatal("table missing paper reference")
	}
}

func TestSyntheticMatrixInputIsSchedulable(t *testing.T) {
	in, err := SyntheticMatrixInput("", 12, 4, 5, 100, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Components) != 12 || in.NumNodes != 4 {
		t.Fatal("dimensions wrong")
	}
	for _, c := range in.Components {
		if c.Node < 0 || c.Node >= 4 {
			t.Fatal("bad node assignment")
		}
	}
	for _, w := range in.NodeSamples {
		if len(w) != 5 {
			t.Fatal("window length wrong")
		}
	}
}

func TestFig6ReplicatedSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated fig6 sweep is expensive")
	}
	base := pcs.SweepSpec{
		Base: pcs.RunSpec{Seed: 5, Requests: 800, Nodes: 8, SearchComponents: 12,
			Replications: 3},
		Rates:      []float64{50},
		Techniques: []pcs.Technique{pcs.Basic, pcs.RED3},
	}
	one := base
	one.Base.Workers = 1
	many := base
	many.Base.Workers = 8
	a, err := RunFig6(one, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig6(many, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i].Report, b.Cells[i].Report
		if ca.AvgOverallMs != cb.AvgOverallMs ||
			ca.P99ComponentMs != cb.P99ComponentMs {
			t.Fatalf("cell %d differs between worker counts:\n%+v\nvs\n%+v", i, ca, cb)
		}
		if ca.AvgOverallMs.CI95 <= 0 {
			t.Fatalf("cell %d has no confidence interval despite 3 replications", i)
		}
	}
	if a.P99ReductionPct != b.P99ReductionPct || a.OverallReductionPct != b.OverallReductionPct {
		t.Fatal("headline reductions differ between worker counts")
	}
}

func TestFig6SingleReplicationMatchesHistoricalSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6 sweep is expensive")
	}
	// The runner-based sweep with Replications=1 must produce exactly the
	// result of calling pcs.Run directly with the historical cell seed.
	spec := pcs.SweepSpec{
		Base:       pcs.RunSpec{Seed: 3, Requests: 800, Nodes: 8, SearchComponents: 12},
		Rates:      []float64{50},
		Techniques: []pcs.Technique{pcs.Basic},
	}
	res, err := RunFig6(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pcs.Run(pcs.RunSpec{
		Technique:        pcs.Basic,
		Seed:             spec.Base.Seed ^ int64(50)<<16 ^ int64(pcs.Basic)<<8,
		Nodes:            8,
		SearchComponents: 12,
		ArrivalRate:      50,
		Requests:         int(90 * 50), // the sweep's 90-virtual-second floor
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cell(pcs.Basic, 50)
	if cell == nil {
		t.Fatal("missing cell")
	}
	if cell.Report.AvgOverallMs.Mean != direct.AvgOverallMs ||
		cell.Report.P99ComponentMs.Mean != direct.P99ComponentMs {
		t.Fatalf("sweep cell %v/%v differs from direct run %v/%v",
			cell.Report.AvgOverallMs.Mean, cell.Report.P99ComponentMs.Mean,
			direct.AvgOverallMs, direct.P99ComponentMs)
	}
	if cell.Report.AvgOverallMs.CI95 != 0 {
		t.Fatal("single replication must not report a confidence interval")
	}
}

func TestFig5ManyAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 takes a few seconds")
	}
	cfg := Fig5Config{Seed: 4, HadoopSizes: 3, SparkSizes: 2, Probes: 40}
	agg, err := RunFig5Many(cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Replications != 2 || len(agg.Results) != 2 {
		t.Fatalf("replications = %d, results = %d", agg.Replications, len(agg.Results))
	}
	single, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Replication 0 runs the root seed, so it must match a direct call.
	if agg.Results[0].MeanErrPct != single.MeanErrPct {
		t.Fatalf("replication 0 err %v, direct run %v", agg.Results[0].MeanErrPct, single.MeanErrPct)
	}
	want := (agg.Results[0].MeanErrPct + agg.Results[1].MeanErrPct) / 2
	if diff := agg.MeanErrPct - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("aggregate mean %v, want %v", agg.MeanErrPct, want)
	}
}

func TestFig7ParallelConstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 timing is a second or two")
	}
	points, err := RunFig7(Fig7Config{
		Seed:    2,
		Points:  []Fig7Point{{M: 20, K: 4}},
		Repeats: 2,
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].AnalysisMs <= 0 {
		t.Fatalf("bad points: %+v", points)
	}
}

func TestFig6StreamWritesEveryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6 sweep is expensive")
	}
	var buf bytes.Buffer
	spec := pcs.SweepSpec{
		Base: pcs.RunSpec{Seed: 9, Requests: 600, Nodes: 8, SearchComponents: 12,
			Replications: 2},
		Rates:      []float64{40, 80},
		Techniques: []pcs.Technique{pcs.Basic, pcs.RED3},
	}
	res, err := RunFig6(spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var recs []pcs.StreamedRun
	for dec.More() {
		var rec pcs.StreamedRun
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	want := len(spec.Rates) * len(spec.Techniques) * spec.Base.Replications
	if len(recs) != want {
		t.Fatalf("streamed %d runs, want %d", len(recs), want)
	}
	// Cell order deterministic: rate-major, technique, then replication;
	// each line reproducible and consistent with its cell aggregate.
	if recs[0].Result.Technique != "Basic" || recs[0].Result.ArrivalRate != 40 || recs[0].Rep != 0 {
		t.Fatalf("first record %+v not (Basic, 40, rep 0)", recs[0])
	}
	cell := res.Cell(pcs.Basic, 40)
	if cell == nil {
		t.Fatal("missing cell")
	}
	mean := (recs[0].Result.AvgOverallMs + recs[1].Result.AvgOverallMs) / 2
	if math.Abs(mean-cell.Report.AvgOverallMs.Mean) > 1e-12 {
		t.Fatalf("streamed runs' mean %v disagrees with cell %v", mean, cell.Report.AvgOverallMs.Mean)
	}
}

func TestFig7ScenarioShapedInputs(t *testing.T) {
	// Each scenario's topology shapes the synthetic components: stage
	// count must match and every stage must be populated.
	for _, name := range []string{"", "microservice-chain", "social-feed"} {
		in, err := SyntheticMatrixInput(name, 40, 8, 5, 100, xrand.New(11))
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if len(in.Components) != 40 {
			t.Fatalf("%q: %d components, want 40", name, len(in.Components))
		}
		seen := make(map[int]int)
		for _, c := range in.Components {
			seen[c.Stage]++
		}
		if len(seen) != in.NumStages {
			t.Fatalf("%q: %d of %d stages populated", name, len(seen), in.NumStages)
		}
	}
	if _, err := SyntheticMatrixInput("no-such", 40, 8, 5, 100, xrand.New(11)); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	// Too few components to cover a deep topology must error, not panic.
	if _, err := SyntheticMatrixInput("microservice-chain", 2, 4, 5, 100, xrand.New(11)); err == nil {
		t.Fatal("2 components across 8 stages accepted")
	}
}

// TestFig6HonoursEverySpecField: a local sweep cell is the RunSpec the
// daemon would run for it — every Base field included, not just the
// deployment and traffic ones — so a tuned sweep's cells each carry the
// aggregate of their own Report(), and the tuning visibly moves them.
func TestFig6HonoursEverySpecField(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6 sweep is expensive")
	}
	spec := pcs.SweepSpec{
		Base: pcs.RunSpec{Seed: 4, Requests: 600, Nodes: 8, SearchComponents: 12,
			SchedulingInterval: 1, WarmupFraction: -1, MonitorNoiseSigma: 0.3},
		Rates:      []float64{20},
		Techniques: []pcs.Technique{pcs.Basic, pcs.PCS},
	}
	tuned, err := RunFig6(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range tuned.Cells {
		want, err := cell.Spec.Report()
		if err != nil {
			t.Fatal(err)
		}
		got := cell.Report
		got.Workers, got.Runs = 0, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s cell diverged from its own Report():\n got %+v\nwant %+v", cell.Spec.Technique, got, want)
		}
	}
	plain := spec
	plain.Base.SchedulingInterval, plain.Base.WarmupFraction, plain.Base.MonitorNoiseSigma = 0, 0, 0
	untuned, err := RunFig6(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if untuned.Cell(pcs.PCS, 20).Report.AvgOverallMs == tuned.Cell(pcs.PCS, 20).Report.AvgOverallMs {
		t.Fatal("tuning fields left the PCS cell unchanged: they never reached the run")
	}
}
