package pcs

import (
	"reflect"
	"testing"
)

// The conformance harness — the reusable form of the identity matrices
// the determinism invariants are pinned with. Every registered scenario,
// current and future, flows through these helpers automatically: the
// cell grid is built from Scenarios() and Techniques(), so registering a
// scenario is all it takes to put it under the shard, lane, sampling and
// conservation matrices (determinism invariant #11 extends #7–#10 this
// way to the DAG scenarios).
//
// Three families of checks:
//
//   - assertShardsBitIdentical / assertLanesBitIdentical: serialized
//     reports are byte-identical across worker-shard and lane counts —
//     parallelism only ever moves the wall clock.
//   - assertSampledMatches: a run observed through SampleEvery yields
//     the exact snapshot series and final Result at every count on a
//     parallelism axis — observation stays free, parallelism invisible,
//     even composed.
//   - assertConservation / assertMonotonicSnapshots: request accounting
//     conserves — every admitted request reaches exactly one terminal
//     outcome (completed, failed or timed out), counters never run
//     backwards, in-flight never goes negative, and tenant accounting
//     re-adds to the run totals.

// conformanceCell is one (scenario, technique) point of the grid.
type conformanceCell struct {
	Scenario string
	Tech     Technique
}

func (c conformanceCell) label() string {
	name := c.Scenario
	if name == "" {
		name = "default"
	}
	return name + "/" + c.Tech.String()
}

// conformanceCells is the grid the identity matrices iterate: Basic and
// PCS (the two wirings — no controller vs profiling + controller) on
// every registered scenario, plus the remaining techniques on the
// default scenario.
func conformanceCells() []conformanceCell {
	var cells []conformanceCell
	for _, name := range Scenarios() {
		for _, tech := range []Technique{Basic, PCS} {
			cells = append(cells, conformanceCell{name, tech})
		}
	}
	for _, tech := range Techniques() {
		if tech != Basic && tech != PCS {
			cells = append(cells, conformanceCell{"", tech})
		}
	}
	return cells
}

// assertVariedBitIdentical runs opts once as the baseline, then once per
// count with vary applied, and fails when any serialized report differs
// from the baseline bytes. It returns the baseline Result so callers can
// layer run-shape assertions (DataPlane, outcome mix) on top.
func assertVariedBitIdentical(t *testing.T, label, axis string, opts RunSpec,
	counts []int, vary func(*RunSpec, int)) Result {
	t.Helper()
	baseline, err := Run(opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := reportBytes(t, baseline)
	for _, n := range counts {
		o := opts
		vary(&o, n)
		res, err := Run(o)
		if err != nil {
			t.Fatalf("%s %s=%d: %v", label, axis, n, err)
		}
		if got := reportBytes(t, res); string(got) != string(want) {
			t.Errorf("%s: report at %s=%d diverged from baseline\n%s=%d: %s\nbase:     %s",
				label, axis, n, axis, n, got, want)
		}
	}
	return baseline
}

// assertShardsBitIdentical pins reports byte-identical across worker
// shard counts 1, 2, 4 and 8.
func assertShardsBitIdentical(t *testing.T, label string, opts RunSpec) Result {
	t.Helper()
	return assertVariedBitIdentical(t, label, "shards", opts, shardCounts,
		func(o *RunSpec, n int) { o.Shards = n })
}

// assertLanesBitIdentical pins laned reports byte-identical across lane
// counts: opts (which must select Lanes=1, the reference) against 2, 4
// and 8 lanes. It also checks the baseline really ran the laned plane —
// a silent fallback to the sequential path would make the pin vacuous.
func assertLanesBitIdentical(t *testing.T, label string, opts RunSpec) Result {
	t.Helper()
	res := assertVariedBitIdentical(t, label, "lanes", opts, laneCounts[1:],
		func(o *RunSpec, n int) { o.Lanes = n })
	if res.DataPlane != "laned" {
		t.Fatalf("%s: DataPlane = %q, want laned", label, res.DataPlane)
	}
	return res
}

// sampledRun advances a simulation through a 31-sample observation
// schedule and returns the final Result with the snapshot series.
func sampledRun(t *testing.T, label string, opts RunSpec) (Result, []Snapshot) {
	t.Helper()
	s, err := NewSimulation(opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var snaps []Snapshot
	if err := s.SampleEvery(s.Horizon()/31, func(sn Snapshot) { snaps = append(snaps, sn) }); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return s.Finish(), snaps
}

// assertSampledMatches pins observation composed with a parallelism
// axis: the sampled run at every count yields the exact snapshot series
// and final Result of the sampled baseline, and that Result equals the
// unobserved run's — sampling perturbs nothing, parallelism moves only
// the wall clock.
func assertSampledMatches(t *testing.T, label, axis string, opts RunSpec,
	counts []int, vary func(*RunSpec, int)) {
	t.Helper()
	plain, err := Run(opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	baseRes, baseSnaps := sampledRun(t, label, opts)
	if !reflect.DeepEqual(baseRes, plain) {
		t.Errorf("%s: observation perturbed the run\nsampled: %+v\nplain:   %+v", label, baseRes, plain)
	}
	for _, n := range counts {
		o := opts
		vary(&o, n)
		res, snaps := sampledRun(t, label, o)
		if !reflect.DeepEqual(res, baseRes) {
			t.Errorf("%s %s=%d: sampled result diverged\ngot:  %+v\nbase: %+v", label, axis, n, res, baseRes)
		}
		if !reflect.DeepEqual(snaps, baseSnaps) {
			t.Errorf("%s %s=%d: snapshot series diverged (%d vs %d samples)",
				label, axis, n, len(snaps), len(baseSnaps))
		}
	}
}

// assertConservation checks request accounting on a finished run against
// its final snapshot: no counter is negative, every admitted request
// reached exactly one terminal outcome (the drain window empties the
// system, so nothing may stay in flight), Result and Snapshot agree on
// the totals, and per-tenant accounting re-adds to them.
func assertConservation(t *testing.T, label string, res Result, final Snapshot) {
	t.Helper()
	if res.Arrivals < 0 || res.Completed < 0 || res.Failed < 0 || res.TimedOut < 0 || res.AdmissionDrops < 0 {
		t.Errorf("%s: negative accounting counter: arrivals=%d completed=%d failed=%d timedOut=%d drops=%d",
			label, res.Arrivals, res.Completed, res.Failed, res.TimedOut, res.AdmissionDrops)
	}
	if terminal := res.Completed + res.Failed + res.TimedOut; terminal != res.Arrivals {
		t.Errorf("%s: conservation violated: %d admitted but %d terminal (%d completed + %d failed + %d timed out)",
			label, res.Arrivals, terminal, res.Completed, res.Failed, res.TimedOut)
	}
	if final.InFlight != 0 {
		t.Errorf("%s: %d requests still in flight after the drain window", label, final.InFlight)
	}
	if final.Arrivals != res.Arrivals || final.Completed != res.Completed ||
		final.Failed != res.Failed || final.TimedOut != res.TimedOut ||
		final.AdmissionDrops != res.AdmissionDrops {
		t.Errorf("%s: Result and final Snapshot disagree on totals\nresult:   %d/%d/%d/%d/%d\nsnapshot: %d/%d/%d/%d/%d",
			label, res.Arrivals, res.Completed, res.Failed, res.TimedOut, res.AdmissionDrops,
			final.Arrivals, final.Completed, final.Failed, final.TimedOut, final.AdmissionDrops)
	}
	var admitted, dropped int
	for _, tn := range res.Tenants {
		if tn.Offered != tn.Admitted+tn.Dropped {
			t.Errorf("%s: tenant %s offered %d ≠ admitted %d + dropped %d",
				label, tn.Name, tn.Offered, tn.Admitted, tn.Dropped)
		}
		admitted += tn.Admitted
		dropped += tn.Dropped
	}
	if len(res.Tenants) > 0 {
		if admitted != res.Arrivals {
			t.Errorf("%s: tenant admissions sum to %d, run admitted %d", label, admitted, res.Arrivals)
		}
		if dropped != res.AdmissionDrops {
			t.Errorf("%s: tenant drops sum to %d, run dropped %d", label, dropped, res.AdmissionDrops)
		}
	}
}

// assertMonotonicSnapshots checks the time-series side of conservation:
// cumulative counters never run backwards between samples and the
// in-flight census — the admitted-minus-terminal balance — never goes
// negative, which is exactly where a double-counted outcome would show.
func assertMonotonicSnapshots(t *testing.T, label string, snaps []Snapshot) {
	t.Helper()
	var prev Snapshot
	for i, sn := range snaps {
		if sn.InFlight < 0 {
			t.Errorf("%s: sample %d: negative in-flight %d (terminal outcomes double-counted?)",
				label, i, sn.InFlight)
		}
		if i > 0 && (sn.Arrivals < prev.Arrivals || sn.Completed < prev.Completed ||
			sn.Failed < prev.Failed || sn.TimedOut < prev.TimedOut ||
			sn.AdmissionDrops < prev.AdmissionDrops) {
			t.Errorf("%s: sample %d: cumulative counter ran backwards\nprev: %+v\ncur:  %+v",
				label, i, prev, sn)
		}
		prev = sn
	}
}

// conservationOpts keeps the full scenario × technique × plane grid of
// the conservation property affordable. Conservation is exact, so scale
// does not weaken the check.
func conservationOpts(tech Technique, scenarioName string, seed int64) RunSpec {
	o := equivOpts(tech, scenarioName, seed)
	o.Requests = 240
	o.SearchComponents = 8
	o.TrainingMixes = 4
	o.ProfilingProbes = 12
	return o
}

// TestConservationAllScenariosTechniques is the conservation property
// test: for every registered scenario under every technique, sequential
// and laned, the run's request accounting conserves — admitted =
// completed + failed + timed out, tenant offered = admitted + dropped —
// and the sampled series behind it is monotone with a non-negative
// in-flight census throughout.
func TestConservationAllScenariosTechniques(t *testing.T) {
	for _, name := range Scenarios() {
		for _, tech := range Techniques() {
			for _, lanes := range []int{0, 2} {
				opts := conservationOpts(tech, name, 41)
				opts.Lanes = lanes
				label := name + "/" + tech.String()
				if lanes > 0 {
					label += "/laned"
				} else {
					label += "/sequential"
				}
				s, err := NewSimulation(opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var snaps []Snapshot
				if err := s.SampleEvery(s.Horizon()/16, func(sn Snapshot) { snaps = append(snaps, sn) }); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				res := s.Finish()
				assertConservation(t, label, res, s.Snapshot())
				assertMonotonicSnapshots(t, label, snaps)
			}
		}
	}
}

// TestDAGSampledRunMatrix extends the sampled ≡ unsampled pin to a DAG
// scenario whose runs exercise the failure outcomes: dag-timeout's
// Failed/TimedOut accounting must stay exact through SampleEvery at
// every shard and lane count, like every other Snapshot field.
func TestDAGSampledRunMatrix(t *testing.T) {
	assertSampledMatches(t, "dag-timeout/PCS", "shards",
		equivOpts(PCS, "dag-timeout", 23), shardCounts[1:],
		func(o *RunSpec, n int) { o.Shards = n })
	assertSampledMatches(t, "dag-timeout/PCS/laned", "lanes",
		lanedOpts(PCS, "dag-timeout", 23), laneCounts[1:],
		func(o *RunSpec, n int) { o.Lanes = n })
}
