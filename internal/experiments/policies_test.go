package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/pcs"
)

// policyGridConfig is the small-but-hot grid the policy tests share: the
// deployment is tiny, so the closed loop only engages when the arrival
// rate carries real per-instance load (see the pcs policy tests for the
// same sizing argument).
func policyGridConfig() PolicyGridConfig {
	return PolicyGridConfig{
		Base: pcs.RunSpec{Seed: 7, Scenario: "autoscale-burst", ArrivalRate: 400, Requests: 6000,
			Nodes: 8, SearchComponents: 12},
		Policies:   []string{"none", "threshold-autoscale"},
		Techniques: []pcs.Technique{pcs.Basic},
	}
}

// TestPolicyGridAutoscaleBeatsOpenLoop is the PR's acceptance criterion:
// in the experiment driver's output, autoscale-burst under the threshold
// autoscaler shows lower p99 component latency than the same scenario run
// open-loop — closing the loop must actually buy the latency it promises.
// The comparison runs at the scenario's designed scale (30 nodes, the
// default λ): elasticity pays when the cluster has headroom to absorb the
// burst; on a saturated toy deployment, scale-up just adds interference.
func TestPolicyGridAutoscaleBeatsOpenLoop(t *testing.T) {
	cfg := PolicyGridConfig{
		Base:       pcs.RunSpec{Seed: 7, Scenario: "autoscale-burst", Requests: 6000},
		Policies:   []string{"none", "threshold-autoscale"},
		Techniques: []pcs.Technique{pcs.Basic},
	}
	res, err := RunPolicyGrid(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	open := res.Cell(pcs.Basic, "none")
	closed := res.Cell(pcs.Basic, "threshold-autoscale")
	if open == nil || closed == nil {
		t.Fatalf("grid missing cells: %+v", res.Cells)
	}
	if n := open.Report.Runs[0].PolicyActions; n != 0 {
		t.Fatalf("open-loop cell applied %d actions", n)
	}
	if closed.Report.Runs[0].PolicyActions == 0 {
		t.Fatal("autoscaler cell never acted — the comparison is vacuous")
	}
	if closed.Report.P99ComponentMs.Mean >= open.Report.P99ComponentMs.Mean {
		t.Fatalf("threshold autoscaler did not beat open-loop p99: %.3f ≥ %.3f ms",
			closed.Report.P99ComponentMs.Mean, open.Report.P99ComponentMs.Mean)
	}
	// The paired design: both cells faced the identical world, so the
	// delta is attributable to the policy alone.
	if open.Report.Arrivals != closed.Report.Arrivals {
		t.Fatalf("cells saw different workloads: %d vs %d arrivals (seeds must pair)",
			open.Report.Arrivals, closed.Report.Arrivals)
	}

	var table strings.Builder
	res.WriteTable(&table)
	out := table.String()
	for _, want := range []string{"threshold-autoscale", "none", "Δp99", "autoscale-burst"} {
		if !strings.Contains(out, want) {
			t.Errorf("grid table missing %q:\n%s", want, out)
		}
	}
}

// TestPolicyGridDeterministicAcrossWorkersAndShards pins invariant #8 at
// the driver level: the grid computes identical cells at any worker and
// shard count, and its NDJSON stream is byte-identical.
func TestPolicyGridDeterministicAcrossWorkersAndShards(t *testing.T) {
	if testing.Short() {
		t.Skip("policy grid is expensive")
	}
	run := func(workers, shards int) (PolicyGridResult, []byte) {
		cfg := policyGridConfig()
		cfg.Base.Workers = workers
		cfg.Base.Shards = shards
		var buf bytes.Buffer
		res, err := RunPolicyGrid(cfg, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	baseRes, baseStream := run(1, 1)
	for _, v := range []struct{ workers, shards int }{{8, 1}, {2, 2}} {
		res, stream := run(v.workers, v.shards)
		for i := range baseRes.Cells {
			// The spec's Workers and Shards and the aggregate's pool width
			// describe how the cell ran, not what it computed.
			a, b := baseRes.Cells[i].Report, res.Cells[i].Report
			a.Workers, b.Workers = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("workers=%d shards=%d: cell %d diverged\n%+v\nvs\n%+v",
					v.workers, v.shards, i, a, b)
			}
		}
		if !bytes.Equal(stream, baseStream) {
			t.Fatalf("workers=%d shards=%d: NDJSON stream diverged", v.workers, v.shards)
		}
	}
	// Every stream line re-runs to exactly its recorded result.
	dec := json.NewDecoder(bytes.NewReader(baseStream))
	lines := 0
	for dec.More() {
		var rec pcs.StreamedRun
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		lines++
		if rec.Rep != 0 || rec.Result.Technique != "Basic" {
			t.Fatalf("unexpected stream record %+v", rec)
		}
	}
	if lines != len(baseRes.Cells) {
		t.Fatalf("stream has %d lines for %d cells", lines, len(baseRes.Cells))
	}
}

// TestPolicyGridReplicatedCellsCarryCIs checks the replication fold: with
// 3 replications per cell the headline metrics gain confidence intervals
// and the actuation count becomes a mean.
func TestPolicyGridReplicatedCellsCarryCIs(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated policy grid is expensive")
	}
	cfg := policyGridConfig()
	cfg.Base.Requests = 3000
	cfg.Base.Replications = 3
	res, err := RunPolicyGrid(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range res.Cells {
		if cell.Report.AvgOverallMs.CI95 <= 0 || cell.Report.P99ComponentMs.CI95 <= 0 {
			t.Fatalf("cell %s/%s has no confidence interval despite 3 replications: %+v",
				cell.Spec.Technique, cell.Spec.Policy, cell)
		}
	}
	closed := res.Cell(pcs.Basic, "threshold-autoscale")
	if closed == nil || meanActions(closed.Report.Runs) == 0 {
		t.Fatal("replicated autoscaler cells never acted")
	}
}

// TestFig6PolicyOption checks the Fig. 6 sweep's -policy plumbing: a
// policy-carrying sweep runs every cell closed-loop.
func TestFig6PolicyOption(t *testing.T) {
	spec := pcs.SweepSpec{
		Base: pcs.RunSpec{Seed: 9, Scenario: "brownout-overload", Policy: "brownout",
			Requests: 4000, Nodes: 8, SearchComponents: 12},
		Rates:      []float64{400},
		Techniques: []pcs.Technique{pcs.Basic},
	}
	res, err := RunFig6(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cell(pcs.Basic, 400)
	if cell == nil {
		t.Fatal("missing cell")
	}
	if run := cell.Report.Runs[0]; run.Policy != "brownout" {
		t.Fatalf("cell policy = %q, want brownout", run.Policy)
	}
	if cell.Report.Runs[0].PolicyActions == 0 {
		t.Fatal("brownout never acted in the sweep cell")
	}
}
