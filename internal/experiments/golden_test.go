package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/pcs"
)

// Table goldens pin the rendered Fig. 6 and policy-grid tables byte for
// byte, at one and at three replications per cell, so any change to how a
// cell is executed, folded or printed shows up as a diff. Regenerate only
// when a change deliberately moves these numbers:
//
//	PCS_WRITE_GOLDEN=1 go test -run TableGolden ./internal/experiments

// checkTableGolden compares a rendered table against testdata/name, or
// rewrites the file under PCS_WRITE_GOLDEN=1.
func checkTableGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("PCS_WRITE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with PCS_WRITE_GOLDEN=1 to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged from its golden:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestFig6TableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6 sweep is expensive")
	}
	for _, reps := range []int{1, 3} {
		spec := pcs.SweepSpec{
			Base: pcs.RunSpec{Seed: 2, Requests: 600, Nodes: 8, SearchComponents: 12,
				Replications: reps},
			Rates:      []float64{10, 20},
			Techniques: []pcs.Technique{pcs.Basic, pcs.RED3, pcs.PCS},
		}
		res, err := RunFig6(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.WriteTable(&buf)
		checkTableGolden(t, fmt.Sprintf("fig6_table_reps%d.txt", reps), buf.Bytes())
	}
}

func TestPolicyGridTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("policy grid is expensive")
	}
	for _, reps := range []int{1, 3} {
		cfg := PolicyGridConfig{
			Base: pcs.RunSpec{Seed: 7, Scenario: "autoscale-burst", ArrivalRate: 400, Requests: 3000,
				Nodes: 8, SearchComponents: 12, Replications: reps},
			Policies:   []string{"none", "threshold-autoscale"},
			Techniques: []pcs.Technique{pcs.Basic, pcs.RI90},
		}
		res, err := RunPolicyGrid(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.WriteTable(&buf)
		checkTableGolden(t, fmt.Sprintf("policy_table_reps%d.txt", reps), buf.Bytes())
	}
}
