package pcs

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// equivOpts keeps the technique × scenario equivalence matrix fast: tiny
// cluster, short run, cheap PCS training. Equivalence is exact, so scale
// does not weaken the check.
func equivOpts(tech Technique, scenarioName string, seed int64) RunSpec {
	return RunSpec{
		Technique:        tech,
		Scenario:         scenarioName,
		Seed:             seed,
		Nodes:            8,
		SearchComponents: 12,
		ArrivalRate:      60,
		Requests:         600,
		TrainingMixes:    15,
		ProfilingProbes:  40,
	}
}

// stepwise drives a Simulation to its horizon in pieces — quarter-horizon
// RunTo slices with Snapshot observations in between, then single Steps,
// then Finish — exercising every way a caller can advance the clock.
func stepwise(t *testing.T, opts RunSpec) Result {
	t.Helper()
	s, err := NewSimulation(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Horizon()
	for _, frac := range []float64{0.25, 0.5, 0.5, 0.75} { // repeat: RunTo is idempotent
		s.RunTo(frac * h)
		s.Snapshot() // observation must not perturb the run
	}
	for i := 0; i < 50 && s.Step(); i++ {
	}
	return s.Finish()
}

// TestSimulationEquivalentToRunAllTechniques is the tentpole's acceptance
// gate: for every technique, pcs.Run and a step-driven
// NewSimulation+RunTo+Step+Finish produce bit-identical Results.
func TestSimulationEquivalentToRunAllTechniques(t *testing.T) {
	for _, tech := range Techniques() {
		opts := equivOpts(tech, "", 7)
		direct, err := Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		stepped := stepwise(t, opts)
		if !reflect.DeepEqual(direct, stepped) {
			t.Errorf("%s: stepped run diverged\nRun:    %+v\nStepped: %+v", tech, direct, stepped)
		}
	}
}

// TestSimulationEquivalentToRunAllScenarios repeats the equivalence check
// on every registered scenario, under Basic and PCS (the two techniques
// with distinct wiring: no controller vs full training + controller).
func TestSimulationEquivalentToRunAllScenarios(t *testing.T) {
	for _, name := range Scenarios() {
		for _, tech := range []Technique{Basic, PCS} {
			opts := equivOpts(tech, name, 11)
			direct, err := Run(opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tech, err)
			}
			if direct.Scenario != name {
				t.Fatalf("%s/%s: Result.Scenario = %q", name, tech, direct.Scenario)
			}
			if direct.Completed == 0 {
				t.Fatalf("%s/%s: nothing completed", name, tech)
			}
			stepped := stepwise(t, opts)
			if !reflect.DeepEqual(direct, stepped) {
				t.Errorf("%s/%s: stepped run diverged\nRun:    %+v\nStepped: %+v",
					name, tech, direct, stepped)
			}
		}
	}
}

func TestRunUnknownScenarioErrors(t *testing.T) {
	o := equivOpts(Basic, "no-such-scenario", 1)
	if _, err := Run(o); err == nil {
		t.Fatal("Run accepted unknown scenario")
	}
	if _, err := NewSimulation(o); err == nil {
		t.Fatal("NewSimulation accepted unknown scenario")
	}
}

func TestSimulationSnapshotProgresses(t *testing.T) {
	s, err := NewSimulation(equivOpts(Basic, "", 3))
	if err != nil {
		t.Fatal(err)
	}
	start := s.Snapshot()
	if start.Now != 0 || start.Arrivals != 0 || start.Completed != 0 {
		t.Fatalf("fresh snapshot not at origin: %+v", start)
	}
	if start.PendingEvents == 0 {
		t.Fatal("fresh simulation has no scheduled events — world not started")
	}
	mid := s.Horizon() / 2
	s.RunTo(mid)
	half := s.Snapshot()
	if half.Now != mid {
		t.Fatalf("RunTo(%v) left clock at %v", mid, half.Now)
	}
	if half.Arrivals == 0 || half.Completed == 0 || half.BatchJobsStarted == 0 {
		t.Fatalf("half-run world inactive: %+v", half)
	}
	if half.Arrivals >= 600 {
		t.Fatalf("half the run already saw all %d arrivals", half.Arrivals)
	}
	final := s.Finish()
	end := s.Snapshot()
	if end.Completed != final.Completed || end.Arrivals != final.Arrivals {
		t.Fatalf("post-finish snapshot %+v disagrees with result %+v", end, final)
	}
	if half.Completed >= final.Completed {
		t.Fatalf("no progress after mid-run: %d → %d", half.Completed, final.Completed)
	}
}

func TestSimulationRunToClampsAndIsMonotone(t *testing.T) {
	s, err := NewSimulation(equivOpts(Basic, "", 5))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.RunTo(s.Horizon() * 10); got != s.Horizon() {
		t.Fatalf("RunTo past horizon → %v, want clamp to %v", got, s.Horizon())
	}
	if got := s.RunTo(1); got != s.Horizon() {
		t.Fatalf("RunTo backwards moved the clock to %v", got)
	}
	if s.Step() {
		t.Fatal("Step past horizon executed an event")
	}
}

func TestSimulationFinishIdempotent(t *testing.T) {
	s, err := NewSimulation(equivOpts(Basic, "", 9))
	if err != nil {
		t.Fatal(err)
	}
	a := s.Finish()
	b := s.Finish()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("second Finish differs:\n%+v\n%+v", a, b)
	}
}

func TestRunScenarioEcommerceEndToEnd(t *testing.T) {
	res, err := Run(RunSpec{
		Technique:   Basic,
		Scenario:    "ecommerce",
		Seed:        2,
		ArrivalRate: 60,
		Requests:    800,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "ecommerce" {
		t.Fatalf("scenario = %q", res.Scenario)
	}
	// The e-commerce topology has four stages; its defaults (16 nodes,
	// two-phase jobs) come from the registry.
	if len(res.StageMeanMs) != 4 {
		t.Fatalf("stage means = %v, want 4 stages", res.StageMeanMs)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

func TestScenariosListed(t *testing.T) {
	names := Scenarios()
	if len(names) < 4 {
		t.Fatalf("Scenarios() = %v, want ≥4", names)
	}
	if d := scenario.Describe(); d == "" || !strings.Contains(ScenarioFlagUsage(), d) {
		t.Fatal("ScenarioFlagUsage() lacks the scenario descriptions")
	}
}

func TestTwoPhaseJobsTriState(t *testing.T) {
	// ecommerce defaults two-phase jobs on; 0 inherits, -1 forces off,
	// +1 forces on. The resolved option is visible on the Simulation.
	base := equivOpts(Basic, "ecommerce", 4)
	inherit, err := NewSimulation(base)
	if err != nil {
		t.Fatal(err)
	}
	if inherit.Options().TwoPhaseJobs <= 0 {
		t.Fatalf("ecommerce default not inherited: TwoPhaseJobs = %d", inherit.Options().TwoPhaseJobs)
	}
	offOpts := base
	offOpts.TwoPhaseJobs = -1
	off, err := NewSimulation(offOpts)
	if err != nil {
		t.Fatal(err)
	}
	if off.Options().TwoPhaseJobs != -1 {
		t.Fatalf("explicit off overridden: TwoPhaseJobs = %d", off.Options().TwoPhaseJobs)
	}
	// The switch must reach the world: same seed, different interference
	// dynamics.
	onRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	offRes, err := Run(offOpts)
	if err != nil {
		t.Fatal(err)
	}
	if onRes.AvgOverallMs == offRes.AvgOverallMs {
		t.Fatal("disabling two-phase jobs changed nothing (suspicious)")
	}
	// nutch-search defaults them off; forcing on must differ too.
	nutch := equivOpts(Basic, "", 4)
	forced := nutch
	forced.TwoPhaseJobs = 1
	a, err := Run(nutch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(forced)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgOverallMs == b.AvgOverallMs {
		t.Fatal("forcing two-phase jobs on changed nothing (suspicious)")
	}
}
