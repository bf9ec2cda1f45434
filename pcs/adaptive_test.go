package pcs

import (
	"reflect"
	"testing"
)

func adaptiveOpts(seed int64) RunSpec {
	return RunSpec{
		Technique:        Basic,
		Seed:             seed,
		Nodes:            8,
		SearchComponents: 12,
		ArrivalRate:      60,
		Requests:         600,
	}
}

func TestRunUntilLooseTargetStopsAtMin(t *testing.T) {
	agg, err := RunUntil(adaptiveOpts(1), CITarget{RelHalfWidth: 10, MinReplications: 3, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Converged {
		t.Fatalf("relative target of 1000%% did not converge: %+v", agg.AvgOverallMs)
	}
	if agg.Replications != 3 {
		t.Fatalf("replications = %d, want the minimum 3", agg.Replications)
	}
}

func TestRunUntilImpossibleTargetHitsCap(t *testing.T) {
	agg, err := RunUntil(adaptiveOpts(1), CITarget{
		RelHalfWidth: 1e-12, MinReplications: 3, MaxReplications: 7, BatchSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Converged {
		t.Fatal("CI target of 1e-12 converged (suspicious)")
	}
	if agg.Replications != 7 {
		t.Fatalf("replications = %d, want the cap 7", agg.Replications)
	}
}

func TestRunUntilMatchesRunManyAtStoppingPoint(t *testing.T) {
	// RunUntil uses the same seed streams as RunCells, so its aggregate
	// must equal a fixed-count run of the same length.
	opts := adaptiveOpts(5)
	agg, err := RunUntil(opts, CITarget{RelHalfWidth: 0.2, MinReplications: 4, MaxReplications: 12, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	opts.Replications = agg.Replications
	fixed, err := RunCells([]RunSpec{opts}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fixed[0].Converged = agg.Converged // the only field allowed to differ
	fixed[0].Workers = agg.Workers
	if !reflect.DeepEqual(agg, fixed[0]) {
		t.Fatalf("RunUntil(%d reps) != RunCells(%d):\n%+v\n%+v",
			agg.Replications, fixed[0].Replications, agg.AvgOverallMs, fixed[0].AvgOverallMs)
	}
}

func TestRunUntilDeterministicAcrossWorkers(t *testing.T) {
	opts := adaptiveOpts(9)
	target := CITarget{RelHalfWidth: 0.15, MinReplications: 4, MaxReplications: 8, BatchSize: 2}
	serial := target
	serial.Workers = 1
	a, err := RunUntil(opts, serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := target
	parallel.Workers = 0
	b, err := RunUntil(opts, parallel)
	if err != nil {
		t.Fatal(err)
	}
	a.Workers, b.Workers = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker count changed the aggregate:\nserial:   %+v\nparallel: %+v",
			a.AvgOverallMs, b.AvgOverallMs)
	}
}

func TestRunUntilTighterTargetNeedsMoreReplications(t *testing.T) {
	opts := adaptiveOpts(3)
	loose, err := RunUntil(opts, CITarget{RelHalfWidth: 0.5, MinReplications: 3, MaxReplications: 24, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := RunUntil(opts, CITarget{RelHalfWidth: 0.02, MinReplications: 3, MaxReplications: 24, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Replications < loose.Replications {
		t.Fatalf("tighter target used fewer replications: %d < %d",
			tight.Replications, loose.Replications)
	}
}

func TestRunUntilRejectsMissingTarget(t *testing.T) {
	if _, err := RunUntil(adaptiveOpts(1), CITarget{}); err == nil {
		t.Fatal("zero CITarget accepted")
	}
	if _, err := RunUntil(adaptiveOpts(1), CITarget{RelHalfWidth: -0.1}); err == nil {
		t.Fatal("negative CI target accepted")
	}
}

func TestRunUntilMaxReplicationsIsAHardCap(t *testing.T) {
	// An explicit cap below the default minimum lowers the minimum; the
	// cap is never exceeded.
	agg, err := RunUntil(adaptiveOpts(2), CITarget{RelHalfWidth: 1e-12, MaxReplications: 3})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Replications != 3 {
		t.Fatalf("replications = %d, want exactly the cap 3", agg.Replications)
	}
	if agg.Converged {
		t.Fatal("impossible target converged")
	}
	// A cap of 1 yields one run and can never converge (no interval from
	// a single sample).
	one, err := RunUntil(adaptiveOpts(2), CITarget{RelHalfWidth: 100, MaxReplications: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.Replications != 1 || one.Converged {
		t.Fatalf("cap 1: replications=%d converged=%v, want 1/false", one.Replications, one.Converged)
	}
}
