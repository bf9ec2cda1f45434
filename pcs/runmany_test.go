package pcs

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// manyTestSpec is a deliberately small deployment, replicated n times, so
// multi-replication tests stay fast; Basic avoids the PCS training pass.
func manyTestSpec(n int) RunSpec {
	return RunSpec{
		Technique:        Basic,
		Seed:             11,
		Nodes:            8,
		SearchComponents: 12,
		ArrivalRate:      50,
		Requests:         600,
		Replications:     n,
	}
}

// runSet runs one cell through RunCells on the given worker count and
// returns its aggregate with the runs its emit saw attached, in
// replication order.
func runSet(t testing.TB, spec RunSpec, workers int) Aggregate {
	t.Helper()
	var runs []Result
	aggs, err := RunCells([]RunSpec{spec}, workers, func(_ int, run StreamedRun) error {
		runs = append(runs, run.Result)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	aggs[0].Runs = runs
	return aggs[0]
}

func aggregatesEqual(a, b Aggregate) bool {
	eq := func(x, y MetricSummary) bool { return x == y }
	return a.Technique == b.Technique &&
		a.Replications == b.Replications &&
		eq(a.AvgOverallMs, b.AvgOverallMs) &&
		eq(a.P99ComponentMs, b.P99ComponentMs) &&
		eq(a.OverallP50Ms, b.OverallP50Ms) &&
		eq(a.OverallP99Ms, b.OverallP99Ms) &&
		eq(a.ComponentMeanMs, b.ComponentMeanMs) &&
		a.Arrivals == b.Arrivals &&
		a.Completed == b.Completed &&
		a.Migrations == b.Migrations
}

func TestRunManyIdenticalForAnyWorkerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replication run takes a few seconds")
	}
	spec := manyTestSpec(6)
	ref := runSet(t, spec, 1)
	for _, workers := range []int{2, 4, 8} {
		got := runSet(t, spec, workers)
		if !aggregatesEqual(ref, got) {
			t.Fatalf("workers=%d aggregate differs from workers=1:\n%+v\nvs\n%+v",
				workers, got, ref)
		}
		for i := range ref.Runs {
			if ref.Runs[i].AvgOverallMs != got.Runs[i].AvgOverallMs ||
				ref.Runs[i].P99ComponentMs != got.Runs[i].P99ComponentMs {
				t.Fatalf("workers=%d: replication %d differs", workers, i)
			}
		}
	}
}

func TestRunManySingleReplicationReproducesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run takes a second")
	}
	spec := manyTestSpec(1)
	single, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	agg := runSet(t, spec, 0)
	if agg.AvgOverallMs.Mean != single.AvgOverallMs ||
		agg.P99ComponentMs.Mean != single.P99ComponentMs {
		t.Fatalf("RunCells(1 replication) = %.6f/%.6f ms, Run(spec) = %.6f/%.6f ms",
			agg.AvgOverallMs.Mean, agg.P99ComponentMs.Mean,
			single.AvgOverallMs, single.P99ComponentMs)
	}
	if agg.AvgOverallMs.CI95 != 0 {
		t.Fatal("single replication should have zero CI")
	}
}

func TestRunManyMergeMatchesSerialReference(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replication run takes a few seconds")
	}
	const n = 5
	spec := manyTestSpec(n)
	agg := runSet(t, spec, 4)

	// Serial reference: run each replication directly with its stream seed
	// and fold the metrics through the stats machinery by hand.
	var w stats.Welford
	vals := make([]float64, n)
	totalCompleted := 0
	for i := 0; i < n; i++ {
		o := spec
		o.Seed = xrand.StreamSeed(spec.Seed, i)
		r, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = r.AvgOverallMs
		w.Add(r.AvgOverallMs)
		totalCompleted += r.Completed
	}
	if agg.AvgOverallMs.Mean != w.Mean() {
		t.Fatalf("aggregate mean %.9f, serial reference %.9f", agg.AvgOverallMs.Mean, w.Mean())
	}
	if math.Abs(agg.AvgOverallMs.CI95-w.MeanCI95()) > 1e-12 {
		t.Fatalf("aggregate CI %.9f, serial reference %.9f", agg.AvgOverallMs.CI95, w.MeanCI95())
	}
	if p50 := stats.Percentile(vals, 50); agg.AvgOverallMs.P50 != p50 {
		t.Fatalf("aggregate p50 %.9f, serial reference %.9f", agg.AvgOverallMs.P50, p50)
	}
	if agg.Completed != totalCompleted {
		t.Fatalf("aggregate completed %d, serial reference %d", agg.Completed, totalCompleted)
	}
	if agg.AvgOverallMs.Min > agg.AvgOverallMs.P50 || agg.AvgOverallMs.P50 > agg.AvgOverallMs.Max {
		t.Fatal("metric summary ordering violated")
	}
}

func TestRunManyPropagatesRunErrors(t *testing.T) {
	spec := manyTestSpec(3)
	spec.Technique = Technique(42)
	if _, err := RunCells([]RunSpec{spec}, 0, nil); err == nil {
		t.Fatal("invalid technique should fail")
	}
	if _, err := RunCells(nil, 0, nil); err == nil {
		t.Fatal("zero replications should fail")
	}
}

// TestRunCellsFlattensCells pins the executor's contract over several
// cells: the jobs are flat over (cell, replication), yet each cell's
// aggregate — and every frame emitted for it, in (cell, replication)
// order — is exactly that cell run on its own, at any worker count.
func TestRunCellsFlattensCells(t *testing.T) {
	a := manyTestSpec(3)
	b := a
	b.Seed, b.ArrivalRate, b.Replications = 12, 70, 2
	cells := []RunSpec{a, b}
	var ref bytes.Buffer
	refAggs, err := RunCells(cells, 1, StreamTo(&ref))
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	var buf bytes.Buffer
	write := StreamTo(&buf)
	aggs, err := RunCells(cells, 4, func(cell int, run StreamedRun) error {
		order = append(order, cell, run.Rep)
		return write(cell, run)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 0, 1, 0, 2, 1, 0, 1, 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("emit order %v, want (cell, rep) pairs %v", order, want)
	}
	if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
		t.Fatal("frames differ between 1 and 4 workers")
	}
	for i, cell := range cells {
		if aggs[i].Workers != 4 || refAggs[i].Workers != 1 {
			t.Fatalf("cell %d: Workers = %d/%d, want the pool widths 4/1", i, aggs[i].Workers, refAggs[i].Workers)
		}
		alone, err := cell.Report()
		if err != nil {
			t.Fatal(err)
		}
		aggs[i].Workers = 0
		if !reflect.DeepEqual(aggs[i], alone) {
			t.Fatalf("cell %d in a batch diverged from its own Report:\n%+v\nvs\n%+v", i, aggs[i], alone)
		}
	}
}
