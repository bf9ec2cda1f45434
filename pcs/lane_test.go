package pcs

import (
	"reflect"
	"strings"
	"testing"
)

// laneCounts is the table determinism invariant #10 is pinned over:
// the laned data plane at 1, 2, 4 and 8 lanes.
var laneCounts = []int{1, 2, 4, 8}

// lanedOpts is equivOpts with the laned data plane on. Lanes=1 is the
// reference: the same laned physics on a single queue.
func lanedOpts(tech Technique, scenarioName string, seed int64) RunSpec {
	o := equivOpts(tech, scenarioName, seed)
	o.Lanes = 1
	return o
}

// TestLanedRunBitIdenticalAllScenariosTechniques is the tentpole's
// acceptance gate (determinism invariant #10): for every conformance cell
// — a table that includes the policy-on scenarios (autoscale-burst,
// brownout-overload), the traffic-shaped ones (tenant-storm,
// session-diurnal) and the DAG ones (fanout-retry, circuit-storm, …) —
// laned runs at 1, 2, 4 and 8 lanes produce byte-identical reports. Lane
// count only ever moves the wall clock.
func TestLanedRunBitIdenticalAllScenariosTechniques(t *testing.T) {
	for _, c := range conformanceCells() {
		assertLanesBitIdentical(t, c.label(), lanedOpts(c.Tech, c.Scenario, 17))
	}
}

// TestLanedRunBitIdenticalTraceAndPolicyOverride covers the two cells the
// scenario table cannot: a RunSpec-level trace replay (file-driven
// arrivals) and an explicit policy override on an otherwise policy-free
// scenario, each pinned byte-identical across lane counts.
func TestLanedRunBitIdenticalTraceAndPolicyOverride(t *testing.T) {
	cases := []struct {
		name string
		opts RunSpec
	}{
		{"trace-replay", func() RunSpec {
			o := lanedOpts(Basic, "", 19)
			o.Traffic = &TrafficSpec{Kind: "trace", Path: "../testdata/traces/sample-1k.ndjson"}
			o.Requests = 1000
			return o
		}()},
		{"policy-override", func() RunSpec {
			o := lanedOpts(RED3, "", 19)
			o.Policy = "pid-throttle"
			return o
		}()},
	}
	for _, tc := range cases {
		baseline, err := Run(tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := reportBytes(t, baseline)
		for _, lanes := range laneCounts[1:] {
			o := tc.opts
			o.Lanes = lanes
			res, err := Run(o)
			if err != nil {
				t.Fatalf("%s lanes=%d: %v", tc.name, lanes, err)
			}
			if got := reportBytes(t, res); string(got) != string(want) {
				t.Errorf("%s: report at -lanes %d diverged from -lanes 1\nlanes=%d: %s\nlanes=1:  %s",
					tc.name, lanes, lanes, got, want)
			}
		}
	}
}

// TestLanedSampledRunMatchesAcrossLanes pins the composition of laning
// with observability: sampled laned runs yield the exact snapshot series
// — and final Result — at every lane count. Observation stays free and
// lane count stays invisible even when both are on.
func TestLanedSampledRunMatchesAcrossLanes(t *testing.T) {
	assertSampledMatches(t, "node-failure/PCS/laned", "lanes",
		lanedOpts(PCS, "node-failure", 23), laneCounts[1:],
		func(o *RunSpec, n int) { o.Lanes = n })
}

// TestLanedStepwiseEquivalence pins slicing invariance in laned mode: a
// run advanced through quarter-horizon slices, Steps and Snapshots
// produces the Result a straight Run does, at several lane counts. Lane
// windows only group events; where the caller slices the clock never
// reorders them.
func TestLanedStepwiseEquivalence(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		opts := lanedOpts(RED3, "", 11)
		opts.Lanes = lanes
		want, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		got := stepwise(t, opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lanes=%d: stepped run diverged\nstepped: %+v\nrun:     %+v", lanes, got, want)
		}
	}
}

// TestLanedDiffersFromSequential guards the mode switch itself: laned
// physics include real network-transit delays, so a laned run must NOT
// reproduce the sequential report — if it did, the laned path silently
// fell back to the sequential one and the whole matrix above would be
// vacuous.
func TestLanedDiffersFromSequential(t *testing.T) {
	seq, err := Run(equivOpts(Basic, "", 13))
	if err != nil {
		t.Fatal(err)
	}
	laned, err := Run(lanedOpts(Basic, "", 13))
	if err != nil {
		t.Fatal(err)
	}
	if seq.DataPlane != "" {
		t.Errorf("sequential run reports DataPlane=%q, want empty", seq.DataPlane)
	}
	if laned.AvgOverallMs == seq.AvgOverallMs {
		t.Error("laned run reproduced the sequential latency exactly; lane transit delays not applied?")
	}
}

// TestLanedCancelDelayValidation pins the lookahead guard: cancellation
// relayed through the root class consumes two network transits, so a
// cancel delay under 2×LaneTransitDelay cannot be represented in laned
// mode and must be rejected — while the sequential path and disabled
// cancellation keep accepting it.
func TestLanedCancelDelayValidation(t *testing.T) {
	bad := lanedOpts(RED3, "", 7)
	bad.CancelDelaySeconds = 0.0001
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "CancelDelaySeconds") {
		t.Errorf("laned run with 0.1 ms cancel delay: err = %v, want CancelDelaySeconds error", err)
	}
	seq := equivOpts(RED3, "", 7)
	seq.CancelDelaySeconds = 0.0001
	seq.Requests = 200
	if _, err := Run(seq); err != nil {
		t.Errorf("sequential run with 0.1 ms cancel delay rejected: %v", err)
	}
	off := lanedOpts(RED3, "", 7)
	off.CancelDelaySeconds = -1 // explicit off
	off.Requests = 200
	if _, err := Run(off); err != nil {
		t.Errorf("laned run with cancellation disabled rejected: %v", err)
	}
}
