package pcs

import (
	"encoding/json"
	"os"
	"testing"
)

// The scalar-arrival compat pin. PR 6 redesigned the arrival path around
// traffic.Source; RunSpec.ArrivalRate survives as a compat shim that
// constructs the same Poisson process from the same rng fork position, so
// every pre-existing scenario must reproduce its PR 5 report byte for
// byte. The goldens in testdata/pr5_reports.json were generated from the
// PR 5 tree (before the traffic package existed); regenerate them only
// when a PR deliberately changes simulation results:
//
//	PCS_WRITE_GOLDEN=1 go test -run TestScalarArrivalCompat ./pcs
const goldenPath = "testdata/pr5_reports.json"

// pr5Scenarios are the nine scenarios registered before the traffic
// redesign, frozen by name: the compat surface is exactly these, not
// whatever the registry grows to.
var pr5Scenarios = []string{
	"autoscale-burst", "brownout-overload", "diurnal-load", "ecommerce",
	"large-cluster", "microservice-chain", "node-failure", "nutch-search",
	"social-feed",
}

// compatCells returns the (scenario, technique) cells the pin covers:
// Basic on all nine pre-existing scenarios (the arrival path with no
// controller), plus PCS on the paper's own (profiling + scheduling on top
// of the same arrivals).
func compatCells() []struct {
	Scenario  string
	Technique Technique
} {
	cells := make([]struct {
		Scenario  string
		Technique Technique
	}, 0, len(pr5Scenarios)+1)
	for _, name := range pr5Scenarios {
		cells = append(cells, struct {
			Scenario  string
			Technique Technique
		}{name, Basic})
	}
	cells = append(cells, struct {
		Scenario  string
		Technique Technique
	}{"nutch-search", PCS})
	return cells
}

func compatKey(scenario string, tech Technique) string {
	return scenario + "/" + tech.String()
}

// TestScalarArrivalCompat pins the RunSpec.ArrivalRate shim: a run
// configured through the scalar field alone produces the exact Result
// bytes the PR 5 tree produced, for every pre-existing scenario. With
// PCS_WRITE_GOLDEN=1 it rewrites the goldens instead of comparing.
func TestScalarArrivalCompat(t *testing.T) {
	write := os.Getenv("PCS_WRITE_GOLDEN") != ""
	got := make(map[string]json.RawMessage)
	for _, cell := range compatCells() {
		res, err := Run(equivOpts(cell.Technique, cell.Scenario, 17))
		if err != nil {
			t.Fatalf("%s: %v", compatKey(cell.Scenario, cell.Technique), err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		got[compatKey(cell.Scenario, cell.Technique)] = b
	}

	if write {
		writeGoldens(t, goldenPath, got)
		return
	}
	compareGoldens(t, goldenPath, got)
}
