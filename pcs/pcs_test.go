package pcs

import (
	"math"
	"testing"
)

func smallOpts(tech Technique, seed int64) RunSpec {
	return RunSpec{
		Technique:        tech,
		Seed:             seed,
		Nodes:            10,
		SearchComponents: 20,
		ArrivalRate:      50,
		Requests:         1500,
	}
}

func TestTechniqueStrings(t *testing.T) {
	want := map[Technique]string{
		Basic: "Basic", RED3: "RED-3", RED5: "RED-5",
		RI90: "RI-90", RI99: "RI-99", PCS: "PCS",
	}
	for tech, name := range want {
		if tech.String() != name {
			t.Errorf("%d.String() = %q, want %q", tech, tech.String(), name)
		}
	}
	if Technique(42).String() == "" {
		t.Error("unknown technique should format")
	}
	if len(Techniques()) != 6 {
		t.Error("Techniques() must list all six")
	}
}

func TestRunBasicCompletesAllRequests(t *testing.T) {
	res, err := Run(smallOpts(Basic, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals != 1500 {
		t.Fatalf("arrivals = %d", res.Arrivals)
	}
	if res.Completed != 1500 {
		t.Fatalf("completed = %d (light load should drain)", res.Completed)
	}
	if res.AvgOverallMs <= 0 || res.P99ComponentMs <= 0 {
		t.Fatal("latencies missing")
	}
	if res.Technique != "Basic" {
		t.Fatalf("technique = %q", res.Technique)
	}
	if res.BatchJobsStarted == 0 {
		t.Fatal("no batch interference generated")
	}
	if len(res.StageMeanMs) != 3 {
		t.Fatalf("stage means = %v", res.StageMeanMs)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	a, err := Run(smallOpts(PCS, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallOpts(PCS, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgOverallMs != b.AvgOverallMs || a.P99ComponentMs != b.P99ComponentMs || a.Migrations != b.Migrations {
		t.Fatalf("same seed differs: %+v vs %+v", a, b)
	}
	c, err := Run(smallOpts(PCS, 8))
	if err != nil {
		t.Fatal(err)
	}
	if c.AvgOverallMs == a.AvgOverallMs {
		t.Fatal("different seeds produced identical latency (suspicious)")
	}
}

func TestRunPCSMigrates(t *testing.T) {
	res, err := Run(smallOpts(PCS, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("PCS made no migrations")
	}
	if res.SchedulingIntervals == 0 {
		t.Fatal("no scheduling intervals ran")
	}
}

func TestRunAllTechniques(t *testing.T) {
	for _, tech := range Techniques() {
		res, err := Run(smallOpts(tech, 3))
		if err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		if res.Completed == 0 {
			t.Fatalf("%s completed nothing", tech)
		}
		if tech != PCS && res.Migrations != 0 {
			t.Fatalf("%s migrated %d components; only PCS migrates", tech, res.Migrations)
		}
	}
}

func TestRunPCSBeatsBasicUnderLoad(t *testing.T) {
	// The headline behaviour: at a load where queueing matters, PCS must
	// reduce both metrics relative to Basic. Averaged over seeds to damp
	// run-to-run variance at this reduced scale.
	var basicOverall, basicP99, pcsOverall, pcsP99 float64
	for _, seed := range []int64{4, 5, 6} {
		opts := func(tech Technique) RunSpec {
			o := smallOpts(tech, seed)
			o.ArrivalRate = 250
			o.Requests = 15000
			return o
		}
		basic, err := Run(opts(Basic))
		if err != nil {
			t.Fatal(err)
		}
		p, err := Run(opts(PCS))
		if err != nil {
			t.Fatal(err)
		}
		basicOverall += basic.AvgOverallMs
		basicP99 += basic.P99ComponentMs
		pcsOverall += p.AvgOverallMs
		pcsP99 += p.P99ComponentMs
	}
	if pcsOverall >= basicOverall {
		t.Errorf("PCS mean overall %.2fms not below Basic %.2fms", pcsOverall/3, basicOverall/3)
	}
	if pcsP99 >= basicP99 {
		t.Errorf("PCS mean p99 %.2fms not below Basic %.2fms", pcsP99/3, basicP99/3)
	}
}

func TestRunRejectsBadQueueModel(t *testing.T) {
	o := smallOpts(PCS, 5)
	o.QueueModel = "m/m/17"
	if _, err := Run(o); err == nil {
		t.Fatal("bad queue model accepted")
	}
}

func TestRunQueueModelVariants(t *testing.T) {
	for _, qm := range []string{"mg1", "mm1", "none"} {
		o := smallOpts(PCS, 6)
		o.QueueModel = qm
		if _, err := Run(o); err != nil {
			t.Fatalf("queue model %q: %v", qm, err)
		}
	}
}

func TestExpectedLatencyMG1Exported(t *testing.T) {
	// x̄=10ms, C²=1, λ=50 → ρ=0.5 → l = 20ms.
	got := ExpectedLatencyMG1(0.010, 0.0001, 50)
	if math.Abs(got-0.020) > 1e-12 {
		t.Fatalf("ExpectedLatencyMG1 = %v, want 0.020", got)
	}
}

func TestStageAndOverallLatencyExported(t *testing.T) {
	if got := StageLatency([]float64{1, 3, 2}); got != 3 {
		t.Fatalf("StageLatency = %v", got)
	}
	if got := OverallLatency([]float64{1, 3, 2}); got != 6 {
		t.Fatalf("OverallLatency = %v", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := RunSpec{}.withDefaults()
	if o.ArrivalRate != 100 || o.Requests != 20000 {
		t.Fatalf("workload defaults: %+v", o)
	}
	if o.EpsilonSeconds <= 0 || o.SchedulingInterval != 5 || o.MaxMigrationsPerInterval != 20 {
		t.Fatalf("scheduling defaults: %+v", o)
	}
	// -1 removes the migration cap.
	o2 := RunSpec{MaxMigrationsPerInterval: -1}.withDefaults()
	if o2.MaxMigrationsPerInterval != 0 {
		t.Fatalf("uncapped = %d", o2.MaxMigrationsPerInterval)
	}
	// Deployment and batch-interference defaults come from the scenario,
	// resolved when the simulation is built.
	s, err := NewSimulation(RunSpec{Technique: Basic, Requests: 100})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Options()
	if r.Scenario != "nutch-search" || r.Nodes != 30 || r.BatchConcurrency != 2 ||
		r.MinInputMB != 1 || r.MaxInputMB != 10*1024 {
		t.Fatalf("scenario defaults not applied: %+v", r)
	}
}

func TestNegativeOneDisablesZeroValueTraps(t *testing.T) {
	// 0 keeps each default; -1 (any negative) is an explicit "off" that
	// used to be unreachable because withDefaults coerced ≤0 back to the
	// default.
	def := RunSpec{}.withDefaults()
	if def.CancelDelaySeconds != 0.003 || def.WarmupFraction != 0.15 || def.DrainSeconds != 10 {
		t.Fatalf("defaults: %+v", def)
	}
	off := RunSpec{CancelDelaySeconds: -1, WarmupFraction: -1, DrainSeconds: -1}.withDefaults()
	if off.CancelDelaySeconds != 0 {
		t.Fatalf("CancelDelaySeconds -1 → %v, want 0 (instant cancellation)", off.CancelDelaySeconds)
	}
	if off.WarmupFraction != 0 {
		t.Fatalf("WarmupFraction -1 → %v, want 0 (no warmup exclusion)", off.WarmupFraction)
	}
	if off.DrainSeconds != 0 {
		t.Fatalf("DrainSeconds -1 → %v, want 0 (no drain)", off.DrainSeconds)
	}
	// Explicit values still win.
	set := RunSpec{CancelDelaySeconds: 0.01, WarmupFraction: 0.3, DrainSeconds: 5}.withDefaults()
	if set.CancelDelaySeconds != 0.01 || set.WarmupFraction != 0.3 || set.DrainSeconds != 5 {
		t.Fatalf("explicit values clobbered: %+v", set)
	}
}

func TestNegativeOneOffValuesRunEndToEnd(t *testing.T) {
	o := smallOpts(RED3, 11)
	o.CancelDelaySeconds = -1
	o.WarmupFraction = -1
	o.DrainSeconds = -1
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// With no drain the horizon ends at the arrival window.
	if want := float64(o.Requests) / o.ArrivalRate; res.VirtualSeconds != want {
		t.Fatalf("VirtualSeconds = %v, want %v (no drain)", res.VirtualSeconds, want)
	}
	// With no warmup every completed request is observed; the observed
	// run must differ from the defaulted one.
	defRes, err := Run(smallOpts(RED3, 11))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgOverallMs == defRes.AvgOverallMs {
		t.Fatal("disabling warmup/drain changed nothing (suspicious)")
	}
}

func TestParseTechnique(t *testing.T) {
	cases := map[string]Technique{
		"Basic": Basic, "basic": Basic,
		"RED-3": RED3, "red3": RED3, "Red-5": RED5,
		"RI-90": RI90, "ri90": RI90, "RI-99": RI99,
		"PCS": PCS, "pcs": PCS, " pcs ": PCS,
	}
	for in, want := range cases {
		got, err := ParseTechnique(in)
		if err != nil {
			t.Errorf("ParseTechnique(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseTechnique(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseTechnique("RED-7"); err == nil {
		t.Error("ParseTechnique accepted RED-7")
	}
	if _, err := ParseTechnique(""); err == nil {
		t.Error("ParseTechnique accepted empty string")
	}
}

func TestRunUnknownTechnique(t *testing.T) {
	o := smallOpts(Technique(42), 1)
	if _, err := Run(o); err == nil {
		t.Fatal("unknown technique accepted")
	}
}
