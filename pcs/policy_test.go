package pcs

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/policy"
)

// policyOpts sizes policy runs so the closed loop actually engages while
// the table stays fast: the equivalence deployment is small (8 nodes, 12
// search components), so per-instance load must come from the arrival
// rate — λ=400 against the scenarios' scripted bursts/overloads reliably
// crosses the built-in policies' pressure thresholds at any seed.
func policyOpts(tech Technique, scenarioName, policyName string, seed int64) RunSpec {
	o := equivOpts(tech, scenarioName, seed)
	o.Policy = policyName
	o.ArrivalRate = 400
	o.Requests = 6000
	return o
}

// policyCells is the scenario × policy table of determinism invariant #8:
// the two scenario-scripted policies, plus each registered policy forced
// onto a plain scenario through RunSpec.Policy.
func policyCells() []struct{ scenario, policy string } {
	return []struct{ scenario, policy string }{
		{"autoscale-burst", ""},                      // scenario-scripted threshold autoscaler
		{"brownout-overload", ""},                    // scenario-scripted brownout
		{"brownout-overload", "threshold-autoscale"}, // forced policy over a scripted disturbance
		{"autoscale-burst", "brownout"},
		{"brownout-overload", "pid-throttle"}, // throttle shaving the scripted overload
	}
}

// TestPolicyRunsBitIdenticalAcrossShardsAndWorkers is determinism
// invariant #8: closed-loop runs replay bit-identically at any shard
// count and any replication worker count. Policy decisions bind at fixed
// virtual times from sampled snapshots, so neither intra-run sharding nor
// cross-run parallelism may reach a policy-on result.
func TestPolicyRunsBitIdenticalAcrossShardsAndWorkers(t *testing.T) {
	for _, cell := range policyCells() {
		opts := policyOpts(Basic, cell.scenario, cell.policy, 37)
		baseline, err := Run(opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", cell.scenario, cell.policy, err)
		}
		if baseline.Policy == "" || baseline.PolicyActions == 0 {
			t.Fatalf("%s/%s: policy idle (name %q, %d actions) — the invariant would hold vacuously",
				cell.scenario, cell.policy, baseline.Policy, baseline.PolicyActions)
		}
		want := reportBytes(t, baseline)
		for _, shards := range shardCounts {
			o := opts
			o.Shards = shards
			res, err := Run(o)
			if err != nil {
				t.Fatalf("%s/%s shards=%d: %v", cell.scenario, cell.policy, shards, err)
			}
			if got := reportBytes(t, res); string(got) != string(want) {
				t.Errorf("%s/%s: policy-on report at -shards %d diverged from sequential\nshards=%d: %s\nseq:      %s",
					cell.scenario, cell.policy, shards, shards, got, want)
			}
		}
	}

	// Workers × shards on a policy scenario: the replication aggregate is
	// bit-identical whether replications run on 1 worker sequentially or
	// on 4 workers with sharded runs.
	opts := policyOpts(Basic, "autoscale-burst", "", 41)
	opts.Replications = 3
	seq := runSet(t, opts, 1)
	o := opts
	o.Shards = 2
	par := runSet(t, o, 4)
	par.Workers = seq.Workers // wall-clock budgeting detail, legitimately differs
	if !reflect.DeepEqual(par, seq) {
		t.Fatalf("policy-on aggregate diverged across workers × shards:\npar: %+v\nseq: %+v", par, seq)
	}
}

// TestPolicyScenariosRegistered pins the two closed-loop scenarios: the
// registry holds 15 entries, the scenarios run their scripted policies by
// default, -policy none runs the same world open-loop, and closing the
// loop changes the outcome.
func TestPolicyScenariosRegistered(t *testing.T) {
	if n := len(Scenarios()); n != 15 {
		t.Fatalf("registry holds %d scenarios, want 15: %v", n, Scenarios())
	}
	wantPolicy := map[string]string{
		"autoscale-burst":   "threshold-autoscale",
		"brownout-overload": "brownout",
	}
	for name, pol := range wantPolicy {
		on, err := Run(policyOpts(Basic, name, "", 43))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if on.Policy != pol {
			t.Fatalf("%s: Result.Policy = %q, want %q", name, on.Policy, pol)
		}
		if on.PolicyActions == 0 {
			t.Fatalf("%s: scripted policy never acted", name)
		}
		offRes, err := Run(policyOpts(Basic, name, "none", 43))
		if err != nil {
			t.Fatalf("%s policy-off: %v", name, err)
		}
		if offRes.Policy != "" || offRes.PolicyActions != 0 {
			t.Fatalf("%s: -policy none still reports %q with %d actions",
				name, offRes.Policy, offRes.PolicyActions)
		}
		if offRes.AvgOverallMs == on.AvgOverallMs && offRes.P99ComponentMs == on.P99ComponentMs {
			t.Fatalf("%s: closing the loop changed nothing (suspicious)", name)
		}
	}
	if _, err := Run(RunSpec{Policy: "warp-drive", Requests: 100}); err == nil {
		t.Fatal("unknown policy name accepted")
	}
}

// TestPolicyLogAndSnapshotGauges drives a policy run steppably and checks
// the observability surface: the log matches Result.PolicyActions, every
// entry carries a reason at a policy-cadence time, and snapshots expose
// the actuator positions.
func TestPolicyLogAndSnapshotGauges(t *testing.T) {
	opts := policyOpts(Basic, "autoscale-burst", "", 43)
	s, err := NewSimulation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PolicyName(); got != "threshold-autoscale" {
		t.Fatalf("PolicyName() = %q", got)
	}
	var maxReplicas int
	if err := s.SampleEvery(s.Horizon()/64, func(sn Snapshot) {
		if sn.ActiveReplicas > maxReplicas {
			maxReplicas = sn.ActiveReplicas
		}
		if sn.WorkFactor != 1 {
			t.Errorf("autoscaler moved the work factor: %v", sn.WorkFactor)
		}
	}); err != nil {
		t.Fatal(err)
	}
	res := s.Finish()
	log := s.PolicyLog()
	if len(log) != res.PolicyActions {
		t.Fatalf("PolicyLog has %d entries, Result.PolicyActions = %d", len(log), res.PolicyActions)
	}
	if maxReplicas < 2 {
		t.Fatalf("snapshots never saw a scale-up (max active replicas %d)", maxReplicas)
	}
	interval := s.Options().PolicyInterval
	for i, a := range log {
		if a.Reason == "" || a.Kind == "" {
			t.Fatalf("action %d incomplete: %+v", i, a)
		}
		if r := a.T / interval; r != float64(int(r)) {
			t.Fatalf("action %d fired at t=%v, not on the %vs policy cadence", i, a.T, interval)
		}
	}
}

// TestControllerSetReplicasValidation covers the scale verb's edge cases:
// scaling below 1, beyond the cluster's capacity, into the past, and below
// the dispatch policy's replica need are all rejected synchronously.
func TestControllerSetReplicasValidation(t *testing.T) {
	s, err := NewSimulation(equivOpts(Basic, "", 47))
	if err != nil {
		t.Fatal(err)
	}
	ctrl := s.Controller()
	h := s.Horizon()
	if err := ctrl.SetReplicasAt(h/4, 0); err == nil {
		t.Fatal("scale to 0 accepted")
	}
	if err := ctrl.SetReplicasAt(h/4, -3); err == nil {
		t.Fatal("scale to -3 accepted")
	}
	nodes := s.Options().Nodes
	if err := ctrl.SetReplicasAt(h/4, nodes+1); err == nil {
		t.Fatal("scale beyond cluster capacity accepted")
	}
	if err := ctrl.SetReplicasAt(h/4, nodes); err != nil {
		t.Fatalf("scale to exactly cluster capacity rejected: %v", err)
	}
	s.RunTo(h / 2)
	if err := ctrl.SetReplicasAt(s.Now()-1, 2); err == nil {
		t.Fatal("scale scheduled into the past accepted")
	}
	if err := ctrl.SetReplicasAt(s.Now(), 2); err != nil {
		t.Fatalf("scale at exactly now rejected: %v", err)
	}

	// A RED-3 world cannot drop below its policy's replica need.
	r3, err := NewSimulation(equivOpts(RED3, "", 47))
	if err != nil {
		t.Fatal(err)
	}
	if err := r3.Controller().SetReplicasAt(r3.Horizon()/4, 2); err == nil {
		t.Fatal("RED-3 world scaled below 3 replicas")
	}
	if err := r3.Controller().SetReplicasAt(r3.Horizon()/4, 4); err != nil {
		t.Fatalf("RED-3 world rejected scale to 4: %v", err)
	}
}

// TestControllerSetReplicasScalesDispatch pins the verb's effect: scaling
// a Basic world up changes the outcome, snapshots see the new replica
// count, and scaling up enables a technique swap that the deployment
// alone would have rejected.
func TestControllerSetReplicasScalesDispatch(t *testing.T) {
	opts := equivOpts(Basic, "", 53)
	plain, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimulation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Controller().SetReplicasAt(s.Horizon()/4, 2); err != nil {
		t.Fatal(err)
	}
	s.RunTo(s.Horizon() / 2)
	if got := s.Snapshot().ActiveReplicas; got != 2 {
		t.Fatalf("mid-run ActiveReplicas = %d, want 2", got)
	}
	scaled := s.Finish()
	if scaled.AvgOverallMs == plain.AvgOverallMs {
		t.Fatal("scale-up changed nothing (suspicious)")
	}
	if scaled.Completed != scaled.Arrivals {
		t.Fatalf("scaled run dropped requests: %d/%d", scaled.Completed, scaled.Arrivals)
	}

	// Scale-up first, then a swap to a technique needing the replicas.
	s2, err := NewSimulation(equivOpts(Basic, "", 53))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Controller().SetTechniqueAt(s2.Horizon()/2, RI90); err == nil {
		t.Fatal("swap to RI-90 accepted on a 1-replica world")
	}
	if err := s2.Controller().SetReplicasAt(s2.Horizon()/4, 2); err != nil {
		t.Fatal(err)
	}
	s2.RunTo(s2.Horizon() / 3) // the scale has fired; the swap validates against it
	if err := s2.Controller().SetTechniqueAt(s2.Horizon()/2, RI90); err != nil {
		t.Fatalf("swap to RI-90 after scale-up rejected: %v", err)
	}
	if s2.Finish().Completed == 0 {
		t.Fatal("nothing completed across scale + swap")
	}
}

// TestControllerSetWorkFactor covers the brownout verb: validation, the
// latency effect of degraded work, and the snapshot gauge.
func TestControllerSetWorkFactor(t *testing.T) {
	opts := equivOpts(Basic, "", 59)
	plain, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimulation(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := s.Controller()
	for _, bad := range []float64{0, -0.5, 1.5} {
		if err := ctrl.SetWorkFactorAt(s.Horizon()/4, bad); err == nil {
			t.Fatalf("work factor %v accepted", bad)
		}
	}
	// Degrade a quarter of the way in — inside the arrival window, so the
	// second three quarters of the workload actually run at half work.
	if err := ctrl.SetWorkFactorAt(s.Horizon()/8, 0.5); err != nil {
		t.Fatal(err)
	}
	s.RunTo(s.Horizon() / 4)
	if got := s.Snapshot().WorkFactor; got != 0.5 {
		t.Fatalf("mid-run WorkFactor = %v, want 0.5", got)
	}
	if err := ctrl.SetWorkFactorAt(s.Now()-1, 0.5); err == nil {
		t.Fatal("work factor scheduled into the past accepted")
	}
	if err := ctrl.SetWorkFactorAt(s.Now(), 0.5); err != nil {
		t.Fatalf("work factor at exactly now rejected: %v", err)
	}
	degraded := s.Finish()
	if degraded.AvgOverallMs >= plain.AvgOverallMs {
		t.Fatalf("half-work run did not reduce average latency: %v ≥ %v",
			degraded.AvgOverallMs, plain.AvgOverallMs)
	}
}

// TestPolicyFlagUsageListsPolicies pins the CLI usage surface.
func TestPolicyFlagUsageListsPolicies(t *testing.T) {
	names := Policies()
	if len(names) < 3 {
		t.Fatalf("Policies() = %v, want ≥3", names)
	}
	usage := PolicyFlagUsage()
	for _, n := range names {
		if !strings.Contains(usage, n) {
			t.Errorf("PolicyFlagUsage() missing %q", n)
		}
	}
	if !strings.Contains(usage, "none") {
		t.Error("PolicyFlagUsage() missing the \"none\" escape hatch")
	}
	if d := policy.Describe(); d == "" || !strings.Contains(usage, d) {
		t.Error("PolicyFlagUsage() lacks the policy descriptions")
	}
}
