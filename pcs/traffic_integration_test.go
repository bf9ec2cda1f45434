package pcs

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// TestPoissonSpecMatchesScalarRun pins the compat design point: an
// explicit {Kind: "poisson"} TrafficSpec is built from the same RNG fork
// position StartArrivals takes, so it reproduces the scalar path's draws
// exactly. Every computed value matches; only the Traffic label differs.
func TestPoissonSpecMatchesScalarRun(t *testing.T) {
	opts := equivOpts(Basic, "", 37)
	scalar, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Traffic = &TrafficSpec{Kind: "poisson"}
	spec, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Traffic == "" {
		t.Fatal("spec-built run carries no traffic label")
	}
	spec.Traffic = scalar.Traffic
	if !reflect.DeepEqual(spec, scalar) {
		t.Fatalf("poisson spec diverged from the scalar path:\nspec:   %+v\nscalar: %+v", spec, scalar)
	}
}

// TestTraceReplayEndToEnd replays the checked-in CI fixture through a full
// simulation: the replay is deterministic, arrival counts match the trace,
// and the tenant tags recorded in the trace come back as per-tenant
// breakdowns.
func TestTraceReplayEndToEnd(t *testing.T) {
	opts := equivOpts(Basic, "", 43)
	opts.Requests = 1000
	opts.ArrivalRate = 100
	opts.Traffic = &TrafficSpec{Kind: "trace", Path: "../testdata/traces/sample-1k.ndjson"}
	first, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Arrivals != 1000 {
		t.Fatalf("replayed %d arrivals, trace holds 1000", first.Arrivals)
	}
	if len(first.Tenants) != 3 {
		t.Fatalf("tenant breakdown %+v, want the trace's batch/mobile/web", first.Tenants)
	}
	for i, name := range []string{"batch", "mobile", "web"} {
		ten := first.Tenants[i]
		if ten.Name != name || ten.Admitted == 0 || ten.P99Ms <= 0 {
			t.Fatalf("tenant %d = %+v, want admitted %s traffic with latencies", i, ten, name)
		}
	}
	again, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportBytes(t, again), reportBytes(t, first); string(got) != string(want) {
		t.Fatalf("trace replay not deterministic:\nfirst: %s\nagain: %s", want, got)
	}
}

// TestTenantStormAcceptance is the PR's acceptance gate: the tenant-storm
// scenario — three tenants, token-bucket admission, an MMPP storm that
// blows through the crawler's budget — produces byte-identical reports,
// including per-tenant p99 and drop counts, across shard counts, and
// bit-identical aggregates across worker counts.
func TestTenantStormAcceptance(t *testing.T) {
	opts := RunSpec{
		Technique:   Basic,
		Scenario:    "tenant-storm",
		Seed:        41,
		ArrivalRate: 90,
		Requests:    6000,
	}
	baseline, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Tenants) != 3 {
		t.Fatalf("tenant breakdown %+v, want 3 tenants", baseline.Tenants)
	}
	drops := 0
	for _, ten := range baseline.Tenants {
		drops += ten.Dropped
		if ten.Offered != ten.Admitted+ten.Dropped {
			t.Fatalf("tenant %s accounting broken: %+v", ten.Name, ten)
		}
	}
	if drops == 0 {
		t.Fatal("no admission drops: the storm never exceeded the crawler's bucket")
	}
	if baseline.AdmissionDrops != drops {
		t.Fatalf("Result.AdmissionDrops = %d, per-tenant drops sum to %d", baseline.AdmissionDrops, drops)
	}

	want := reportBytes(t, baseline)
	for _, shards := range shardCounts[1:] {
		o := opts
		o.Shards = shards
		res, err := Run(o)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := reportBytes(t, res); string(got) != string(want) {
			t.Errorf("report at -shards %d diverged (per-tenant p99/drops included)\nshards: %s\nseq:    %s",
				shards, got, want)
		}
	}

	// Workers × shards: replication aggregates carry every per-tenant
	// breakdown in their Runs, so DeepEqual pins those too.
	small := opts
	small.Requests = 3000
	small.Replications = 3
	var ref Aggregate
	for i, combo := range []struct{ workers, shards int }{{1, 1}, {4, 2}, {8, 4}, {2, 8}} {
		o := small
		o.Shards = combo.shards
		agg := runSet(t, o, combo.workers)
		agg.Workers = 0 // wall-clock budgeting detail, legitimately varies
		if i == 0 {
			ref = agg
			continue
		}
		if !reflect.DeepEqual(agg, ref) {
			t.Errorf("aggregate at workers=%d shards=%d diverged from workers=1 shards=1",
				combo.workers, combo.shards)
		}
	}
}

// writeSyntheticTrace writes an n-arrival NDJSON trace at roughly the
// given rate, tenant-tagged, for steering tests that need more headroom
// than the checked-in fixture.
func writeSyntheticTrace(t *testing.T, n int, rate float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "steer.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src := xrand.New(7)
	now := 0.0
	for i := 0; i < n; i++ {
		now += src.Exp(1 / rate)
		tenant := "blue"
		if i%3 == 0 {
			tenant = "green"
		}
		fmt.Fprintf(f, "{\"t\": %.9f, \"tenant\": %q}\n", now, tenant)
	}
	return path
}

// TestSteeringComposesWithTrafficSources pins the tentpole's API claim:
// every Controller steering verb acts on any traffic.Source, not just the
// scalar Poisson stream. Rate steps and sinusoidal modulation over trace
// replay and session populations change the run (speed scaling is real)
// and stay byte-identical at every shard count.
func TestSteeringComposesWithTrafficSources(t *testing.T) {
	tracePath := writeSyntheticTrace(t, 2500, 60)
	specs := map[string]*TrafficSpec{
		"trace":    {Kind: "trace", Path: tracePath},
		"sessions": {Kind: "sessions", Users: 120, ThinkSeconds: 2},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			steered := func(shards int) Result {
				o := equivOpts(Basic, "", 47)
				o.Traffic = spec
				o.Shards = shards
				s, err := NewSimulation(o)
				if err != nil {
					t.Fatal(err)
				}
				ctrl := s.Controller()
				h := s.Horizon()
				if err := ctrl.SetArrivalRateAt(0.2*h, 110); err != nil {
					t.Fatal(err)
				}
				if err := ctrl.SetArrivalRateAt(0.5*h, 60); err != nil {
					t.Fatal(err)
				}
				if err := ctrl.ModulateArrivalRate(h/2, 0.4, 8); err != nil {
					t.Fatal(err)
				}
				return s.Finish()
			}
			base := steered(1)

			// Steering must actually reshape the run relative to the same
			// source left alone.
			o := equivOpts(Basic, "", 47)
			o.Traffic = spec
			flat, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if base.VirtualSeconds == flat.VirtualSeconds && base.AvgOverallMs == flat.AvgOverallMs {
				t.Fatalf("steering had no effect on the %s source", name)
			}

			want := reportBytes(t, base)
			for _, shards := range shardCounts[1:] {
				if got := reportBytes(t, steered(shards)); string(got) != string(want) {
					t.Errorf("steered %s run at -shards %d diverged\nshards: %s\nseq:    %s",
						name, shards, got, want)
				}
			}
		})
	}
}

// TestAdmissionFactorOverTrafficSources pins the third steering surface —
// hard admission scaling (the PID throttle's actuator) — over non-Poisson
// sources, and the Snapshot gauges that expose it: OfferedRate stays the
// nominal intensity while AdmittedRate tracks OfferedRate × factor.
func TestAdmissionFactorOverTrafficSources(t *testing.T) {
	tracePath := writeSyntheticTrace(t, 2500, 60)
	specs := map[string]*TrafficSpec{
		"trace":    {Kind: "trace", Path: tracePath},
		"sessions": {Kind: "sessions", Users: 120, ThinkSeconds: 2},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			run := func(shards int) (Result, Snapshot) {
				o := equivOpts(Basic, "", 53)
				o.Traffic = spec
				o.Shards = shards
				s, err := NewSimulation(o)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Controller().SetAdmissionFactorAt(0.25*s.Horizon(), 0.5); err != nil {
					t.Fatal(err)
				}
				s.RunTo(0.5 * s.Horizon())
				mid := s.Snapshot()
				return s.Finish(), mid
			}
			base, mid := run(1)
			if mid.AdmissionFactor != 0.5 {
				t.Fatalf("admission factor %g at mid-run, want 0.5", mid.AdmissionFactor)
			}
			if mid.OfferedRate <= 0 {
				t.Fatalf("OfferedRate gauge %g, want the positive nominal intensity", mid.OfferedRate)
			}
			// Sessions report nominal × speed exactly; a replay reports its
			// windowed empirical rate, so the halving shows as a band.
			ratio := mid.AdmittedRate / mid.OfferedRate
			if name == "sessions" && ratio != 0.5 {
				t.Fatalf("gauges offered=%g admitted=%g, want admitted = offered × 0.5",
					mid.OfferedRate, mid.AdmittedRate)
			}
			if ratio <= 0.3 || ratio >= 0.75 {
				t.Fatalf("throttle invisible in gauges: offered=%g admitted=%g",
					mid.OfferedRate, mid.AdmittedRate)
			}
			want := reportBytes(t, base)
			for _, shards := range []int{2, 8} {
				res, _ := run(shards)
				if got := reportBytes(t, res); string(got) != string(want) {
					t.Errorf("throttled %s run at -shards %d diverged", name, shards)
				}
			}
		})
	}
}

// TestSessionDiurnalModulatesOfferedLoad drives the session-diurnal
// scenario with snapshot sampling: the diurnal steering script must
// actually swing the population's offered rate over the run.
func TestSessionDiurnalModulatesOfferedLoad(t *testing.T) {
	o := RunSpec{
		Technique:   Basic,
		Scenario:    "session-diurnal",
		Seed:        59,
		ArrivalRate: 100,
		Requests:    2000,
	}
	s, err := NewSimulation(o)
	if err != nil {
		t.Fatal(err)
	}
	min, max := 0.0, 0.0
	if err := s.SampleEvery(s.Horizon()/64, func(sn Snapshot) {
		if min == 0 || sn.AdmittedRate < min {
			min = sn.AdmittedRate
		}
		if sn.AdmittedRate > max {
			max = sn.AdmittedRate
		}
	}); err != nil {
		t.Fatal(err)
	}
	res := s.Finish()
	if res.Traffic == "" || res.Completed == 0 {
		t.Fatalf("session-diurnal run incomplete: %+v", res)
	}
	// ±50% amplitude: the sampled admitted rate must swing well beyond
	// numeric noise around the 100 req/s nominal.
	if min == 0 || max/min < 1.5 {
		t.Fatalf("diurnal modulation missing: admitted rate stayed in [%g, %g]", min, max)
	}
}

// TestPolicyOverSessionTraffic composes the closed-loop layer with a
// session population: the PID admission throttle runs against a sessions
// source (its actuator lands on Source.SetRate speed scaling) and the run
// stays deterministic.
func TestPolicyOverSessionTraffic(t *testing.T) {
	o := equivOpts(Basic, "", 61)
	o.Traffic = &TrafficSpec{Kind: "sessions", Users: 400, ThinkSeconds: 1}
	o.Policy = "pid-throttle"
	first, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if first.Policy != "pid-throttle" {
		t.Fatalf("policy %q did not run", first.Policy)
	}
	again, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportBytes(t, again), reportBytes(t, first); string(got) != string(want) {
		t.Fatalf("policy over sessions not deterministic:\nfirst: %s\nagain: %s", want, got)
	}
}
