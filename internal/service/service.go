package service

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/lane"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// Policy routes sub-requests to component instances. Implementations live
// in internal/baseline (Basic, RED-k, RI-p); PCS uses the Basic policy plus
// the component-level scheduler.
type Policy interface {
	// Name identifies the policy in reports (e.g. "RED-3").
	Name() string
	// Replicas returns how many instances each component needs under this
	// policy (1 for Basic/PCS, k for RED-k, 2 for reissue).
	Replicas() int
	// Dispatch issues the sub-request to one or more instances at virtual
	// time now and may schedule reissue timers via Service.AfterData.
	// Dispatch always runs in root-class context (request bookkeeping), so
	// it may read sub-request state and issue freely.
	Dispatch(svc *Service, sub *SubRequest, now float64)
}

// LaneTransitDelay is the network transit lower bound (seconds) every
// cross-class data-plane message pays in laned mode: dispatch reaching an
// instance, a completion or start notice reaching the request's root
// bookkeeping. It is the manufactured lookahead conservative parallel
// execution synchronizes on — 0.2 ms, well under the 3 ms
// cancellation-message delay and the millisecond-scale service times, so
// it perturbs the modeled physics far less than the queueing it enables
// us to simulate faster. Sequential runs (no Config.Lanes) pay no delay
// at all: their physics are byte-for-byte the pre-lane ones.
const LaneTransitDelay = 0.0002

// rootClass is the affinity class owning request/sub-request bookkeeping:
// dispatch, first-completion-wins arbitration, stage advancement, reissue
// timers and the load counters PickInstance reads. Each component
// instance gets its own class (see Instance.classID).
const rootClass = 0

// MaxLaneClasses bounds the affinity-class space of a deployment: the
// root class plus one class per potential instance. Replica r of a
// component can exist for r up to nodes-1 (replicas of a component never
// share a node), whether placed at deployment or conjured by autoscaling.
func MaxLaneClasses(t Topology, nodes int) int {
	return 1 + t.NumComponents()*nodes
}

// Config assembles a service deployment.
type Config struct {
	Topology Topology
	// Law is the ground-truth interference law; zero value selects
	// DefaultLaw with the cluster's node-0 capacity.
	Law InterferenceLaw
	// ReplicaFootprintScale scales non-primary replicas' demand relative
	// to the primary. With utilisation-scaled demand, idle replicas are
	// already near-free, so the default is 1 (replicas are full VMs).
	ReplicaFootprintScale float64
	// DemandPeriod is how often instance demands are refreshed from server
	// utilisation and node aggregates recomputed (default 1 s, the
	// system-level monitoring cadence).
	DemandPeriod float64
	// ComponentLatencyReservoir bounds the per-component latency sample; 0
	// selects 100 000.
	ComponentLatencyReservoir int
	// Warmup is the virtual time before which latencies are discarded.
	Warmup float64
	// Pool, when non-nil, shards each demand tick across its workers:
	// instance utilisation refreshes and node aggregate recomputes are
	// per-entity work with frozen inputs, so the tick is bit-identical at
	// any shard count. Nil ticks inline.
	Pool *shard.Pool
	// Lanes, when non-nil, runs the request path on the laned data plane:
	// dispatch, start/completion notices and cancellations become
	// timestamped inter-class messages (each paying LaneTransitDelay) and
	// execute in conservative parallel windows. Results are byte-identical
	// at any lane count but differ from the nil (sequential) physics,
	// which stay exactly the historical ones.
	Lanes *lane.Plane
	// Graph, when non-nil, replaces the linear stage walk with DAG
	// execution: node i of the plan runs on stage i of the topology, so
	// the plan and topology must agree on length (both come from the same
	// graph.Spec). Nil keeps the historical sequential-stage flow.
	Graph *GraphPlan
}

// Service wires a topology onto a cluster and runs the open-loop request
// workload. It owns the collector and exposes migration hooks for the
// scheduler.
type Service struct {
	cfg     Config
	engine  *sim.Engine
	cluster *cluster.Cluster
	law     InterferenceLaw
	rng     *xrand.Source
	policy  Policy

	// lanes is the laned data plane when configured; laneSeed roots the
	// per-instance service-time RNG streams (xrand.StreamSeed(laneSeed,
	// classID+1)) that replace the shared svc.rng consumption order —
	// stream identity is a pure function of the instance's class, so draws
	// are identical at any lane count.
	lanes    *lane.Plane
	laneSeed int64

	components      []*Component // dense, Global index order
	stageComponents [][]*Component

	// activeReplicas is the count dispatch currently spreads over: the
	// replica count the topology was placed with until closed-loop
	// autoscaling moves it, growing Instances lazily past the deployment
	// when scaling above it. Mid-run policy swaps may not demand more
	// instances than are active.
	activeReplicas int
	// workFactor scales every execution's nominal work in (0, 1] — the
	// brownout actuator; 1 is full fidelity.
	workFactor float64
	// offeredRate is the arrival rate the workload offers (set by
	// StartTraffic/StartArrivals and moved by steering: rate steps,
	// diurnal modulation); admissionFactor in (0, 1] is the throttle
	// actuator. The traffic source always runs at offeredRate ×
	// admissionFactor, so throttling composes with — never overwrites —
	// scripted load.
	offeredRate     float64
	admissionFactor float64
	// src is the arrival source once StartTraffic has run; steering
	// retargets its rate mid-run through SetRate.
	src traffic.Source

	collector *trace.Collector

	// graph is the compiled DAG when the deployment runs one; graphRNG is
	// its dedicated stream (edge draws, storage operations — forked only
	// in graph mode so non-graph runs keep their historical draw
	// sequences); breakers holds per-node circuit state; graphStats the
	// failure-semantics counters. failed/timedOut are request outcomes —
	// always zero on non-graph deployments, whose requests cannot fail.
	graph      *GraphPlan
	graphRNG   *xrand.Source
	breakers   []breakerState
	graphStats GraphStats
	failed     int
	timedOut   int

	arrivals   int
	completed  int
	nextReqID  int
	migrations int

	// admissionDrops counts arrivals the traffic layer denied (a tenant's
	// token bucket ran dry); tenantArrivals/tenantDrops break admitted and
	// denied counts down by tenant, allocated lazily on first tenanted
	// arrival.
	admissionDrops int
	tenantArrivals map[string]int
	tenantDrops    map[string]int

	// OnArrival, if set, is called at every request arrival (the monitor
	// uses it to estimate λ, as the paper's monitor does from service
	// logs).
	OnArrival func(now float64)
}

// New deploys a service. Component instances are placed round-robin across
// nodes; replicas of the same component land on distinct nodes (required
// for redundancy to make sense, and matching the paper's setup where each
// component VM sits on some node alongside batch-job VMs).
func New(e *sim.Engine, cl *cluster.Cluster, src *xrand.Source, policy Policy, cfg Config) (*Service, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("service: nil policy")
	}
	if cfg.ReplicaFootprintScale <= 0 {
		cfg.ReplicaFootprintScale = 1
	}
	if cfg.DemandPeriod <= 0 {
		cfg.DemandPeriod = 1
	}
	if cfg.ComponentLatencyReservoir <= 0 {
		cfg.ComponentLatencyReservoir = 100_000
	}
	law := cfg.Law
	if law.Capacity.IsZero() && law.Alpha.IsZero() {
		law = DefaultLaw(cl.Node(0).Capacity)
	}
	replicas := policy.Replicas()
	if replicas < 1 {
		return nil, fmt.Errorf("service: policy %s requests %d replicas", policy.Name(), replicas)
	}
	if replicas > cl.NumNodes() {
		return nil, fmt.Errorf("service: %d replicas need at least as many nodes, cluster has %d",
			replicas, cl.NumNodes())
	}

	svc := &Service{
		cfg:             cfg,
		engine:          e,
		cluster:         cl,
		law:             law,
		rng:             src.Fork(),
		policy:          policy,
		activeReplicas:  replicas,
		workFactor:      1,
		admissionFactor: 1,
	}
	svc.collector = trace.NewCollector(len(cfg.Topology.Stages), cfg.ComponentLatencyReservoir, src.Fork())
	svc.collector.WarmupUntil = cfg.Warmup
	if cfg.Lanes != nil {
		// The per-instance stream root is drawn only in laned mode, after
		// the collector's fork, so sequential deployments consume exactly
		// the historical draw sequence.
		svc.lanes = cfg.Lanes
		svc.laneSeed = src.Int63()
	}
	if cfg.Graph != nil {
		if got, want := len(cfg.Graph.Nodes), len(cfg.Topology.Stages); got != want {
			return nil, fmt.Errorf("service: graph %q has %d nodes but topology %q has %d stages",
				cfg.Graph.Name, got, cfg.Topology.Name, want)
		}
		// The graph stream is forked only in graph mode, after every
		// existing fork, so non-graph deployments (laned or not) keep
		// their historical draw sequences untouched.
		svc.graph = cfg.Graph
		svc.graphRNG = src.Fork()
		svc.breakers = make([]breakerState, len(cfg.Graph.Nodes))
	}

	global := 0
	nodeCursor := 0
	k := cl.NumNodes()
	for si, spec := range cfg.Topology.Stages {
		stage := make([]*Component, 0, spec.Components)
		for ci := 0; ci < spec.Components; ci++ {
			comp := &Component{Stage: si, IndexInStage: ci, Global: global, Spec: spec, homeNode: nodeCursor}
			for r := 0; r < replicas; r++ {
				// Primary round-robins over the cluster; replica r sits r
				// nodes further along so a component's replicas never share
				// a node. placeReplica applies the same rule when scale-up
				// grows a component later.
				svc.placeReplica(comp, r)
			}
			nodeCursor = (nodeCursor + 1) % k
			stage = append(stage, comp)
			svc.components = append(svc.components, comp)
			global++
		}
		svc.stageComponents = append(svc.stageComponents, stage)
	}

	// Refresh utilisation-scaled demands on the monitoring cadence so that
	// executed work — including redundant executions — shows up as node
	// contention.
	e.Every(cfg.DemandPeriod, func(now float64) { svc.demandTick(now) })
	return svc, nil
}

// placeReplica creates replica r of comp at (homeNode + r) mod nodes and
// hosts it there. The rule is the deployment-time placement rule, so a
// replica conjured by mid-run scale-up lands exactly where it would have
// at deployment — placement never depends on when scaling ran, or on the
// component's primary having migrated since.
func (s *Service) placeReplica(comp *Component, r int) {
	nodeID := (comp.homeNode + r) % s.cluster.NumNodes()
	in := &Instance{
		Comp:    comp,
		Replica: r,
		id:      fmt.Sprintf("c%d.%d.r%d", comp.Stage, comp.IndexInStage, r),
		svc:     s,
		nodeID:  nodeID,
		muMean:  math.NaN(),
	}
	s.cluster.Node(nodeID).Host(in)
	comp.Instances = append(comp.Instances, in)
}

// demandTick refreshes every instance's utilisation-scaled demand and the
// node aggregates. The tick executes inside one engine event, so it is a
// window barrier: first every instance refreshes its own EWMA and demand
// scale (instance-local state, shardable by component), then every node
// re-sums its hosted demands in hosting order (node-local state, shardable
// by node). Neither region draws randomness, so results are identical at
// any shard count.
func (s *Service) demandTick(now float64) {
	pool := s.cfg.Pool
	pool.Run(len(s.components), func(_, lo, hi int) {
		for _, c := range s.components[lo:hi] {
			for _, in := range c.Instances {
				in.demandTick(now)
			}
		}
	})
	nodes := s.cluster.Nodes()
	pool.Run(len(nodes), func(_, lo, hi int) {
		for _, n := range nodes[lo:hi] {
			n.Refresh()
		}
	})
}

// Components returns all components in Global index order.
func (s *Service) Components() []*Component { return s.components }

// Component returns the component with the given global index.
func (s *Service) Component(global int) *Component { return s.components[global] }

// StageComponents returns the components of one stage.
func (s *Service) StageComponents(stage int) []*Component { return s.stageComponents[stage] }

// NumStages returns the number of sequential stages.
func (s *Service) NumStages() int { return len(s.stageComponents) }

// Collector exposes the latency collector.
func (s *Service) Collector() *trace.Collector { return s.collector }

// Policy returns the active execution policy.
func (s *Service) Policy() Policy { return s.policy }

// SetPolicy swaps the dispatch policy mid-run. Sub-requests already in
// flight finish under the policy that dispatched them; new dispatches use
// the new policy. The new policy may not demand more replicas than are
// currently active (scale up first if it does); demanding fewer is fine —
// surplus replicas idle.
func (s *Service) SetPolicy(p Policy) error {
	if p == nil {
		return fmt.Errorf("service: nil policy")
	}
	if r := p.Replicas(); r > s.activeReplicas {
		return fmt.Errorf("service: policy %s needs %d replicas, deployment has %d active",
			p.Name(), r, s.activeReplicas)
	}
	s.policy = p
	return nil
}

// ActiveReplicas reports the per-component replica count dispatch
// currently spreads over.
func (s *Service) ActiveReplicas() int { return s.activeReplicas }

// SetActiveReplicas scales the deployment: dispatch spreads new work over
// the first n replicas of every component. Scaling up past the replicas a
// component already has places and hosts the missing instances at their
// deterministic deployment positions; scaling down parks the surplus —
// parked instances drain the work they already hold and then idle at the
// VM background footprint, so a later scale-up reactivates them instantly.
// n must cover the active dispatch policy's replica need (a RED-3 world
// cannot drop below 3) and cannot exceed the cluster size (a component's
// replicas never share a node).
func (s *Service) SetActiveReplicas(n int) error {
	if n < 1 {
		return fmt.Errorf("service: active replicas must be at least 1, got %d", n)
	}
	if k := s.cluster.NumNodes(); n > k {
		return fmt.Errorf("service: %d replicas exceed cluster capacity (%d nodes; replicas of a component never share a node)", n, k)
	}
	if r := s.policy.Replicas(); n < r {
		return fmt.Errorf("service: policy %s needs %d replicas, cannot scale to %d",
			s.policy.Name(), r, n)
	}
	for _, c := range s.components {
		for r := len(c.Instances); r < n; r++ {
			s.placeReplica(c, r)
		}
	}
	s.activeReplicas = n
	return nil
}

// ActiveInstanceCount reports the total number of instances dispatch may
// currently use across the deployment: components × active replicas.
func (s *Service) ActiveInstanceCount() int { return len(s.components) * s.activeReplicas }

// WorkFactor reports the current per-request work multiplier in (0, 1].
func (s *Service) WorkFactor() float64 { return s.workFactor }

// SetWorkFactor sets the brownout actuator: every execution started from
// now on draws its service time from base·f instead of the stage's full
// nominal work. f is a fidelity fraction in (0, 1]; 1 restores full
// service. The change never renumbers random draws, so browned-out runs
// stay bit-reproducible.
func (s *Service) SetWorkFactor(f float64) error {
	if f <= 0 || f > 1 {
		return fmt.Errorf("service: work factor must be in (0, 1], got %g", f)
	}
	s.workFactor = f
	return nil
}

// PickInstance returns the active instance dispatch should use for one
// execution of comp: the primary while one replica is active (the
// deployment-time behavior, untouched by this feature), otherwise the
// least-loaded active instance — shortest queue, idle server breaking
// ties, lowest replica index breaking the rest. The choice reads only
// deterministic queue state, never randomness. In laned mode the load
// signal is the root class's own outstanding-execution ledger instead of
// the instances' queue state, which belongs to other lanes mid-window —
// the ledger is what a real load balancer sees: work it sent minus
// completions it heard back about.
func (s *Service) PickInstance(comp *Component) *Instance {
	active := comp.ActiveInstances()
	best := active[0]
	if len(active) == 1 {
		return best
	}
	if s.lanes != nil {
		for _, in := range active[1:] {
			if in.rootOutstanding < best.rootOutstanding {
				best = in
			}
		}
		return best
	}
	bestLoad := best.QueueLen()
	if best.Busy() {
		bestLoad++
	}
	for _, in := range active[1:] {
		load := in.QueueLen()
		if in.Busy() {
			load++
		}
		if load < bestLoad {
			best, bestLoad = in, load
		}
	}
	return best
}

// Engine returns the simulation engine the service runs on.
func (s *Service) Engine() *sim.Engine { return s.engine }

// scheduleData schedules a data-plane event at absolute time at, sent by
// affinity class src to class dst. Sequential deployments fall back to
// the engine — called from inside an event, scheduling at = now + d is
// exactly engine.After(d, ...), so the facade is physics-neutral there.
// Laned deployments route through the plane, where cross-class sends
// must keep at ≥ now + LaneTransitDelay.
func (s *Service) scheduleData(src, dst int, at float64, h sim.Handler) {
	if s.lanes == nil {
		s.engine.Schedule(at, h)
		return
	}
	s.lanes.Schedule(src, dst, at, h)
}

// AfterData schedules h at now+d on the request path's root affinity
// class. Policies use it for reissue timers and any other root-context
// follow-up: in sequential mode it is engine.After; in laned mode the
// timer stays on the root class's own lane, so it needs no transit delay
// and fires in canonical order with the rest of the request bookkeeping.
// now must be the virtual time of the event calling AfterData. A handler
// implemented on a record the caller already holds (a sub-request, say)
// schedules without allocating; a func converts through sim.Event.
func (s *Service) AfterData(now, d float64, h sim.Handler) {
	s.scheduleData(rootClass, rootClass, now+d, h)
}

// Cluster returns the hosting cluster.
func (s *Service) Cluster() *cluster.Cluster { return s.cluster }

// Law returns the ground-truth interference law (profiling harnesses use it
// through probe runs; the predictor itself never touches it).
func (s *Service) Law() InterferenceLaw { return s.law }

// RNG returns the service's random source (policies draw replica choices
// from it so runs stay reproducible).
func (s *Service) RNG() *xrand.Source { return s.rng }

// Arrivals, Completed and Migrations report run counters.
func (s *Service) Arrivals() int { return s.arrivals }

// Completed reports the number of fully answered requests.
func (s *Service) Completed() int { return s.completed }

// Migrations reports how many component migrations have landed.
func (s *Service) Migrations() int { return s.migrations }

// InjectRequest admits one untenanted request now.
func (s *Service) InjectRequest() *Request {
	return s.injectArrival(traffic.Meta{})
}

// injectArrival admits one request carrying the arrival's metadata.
func (s *Service) injectArrival(meta traffic.Meta) *Request {
	now := s.engine.Now()
	r := &Request{ID: s.nextReqID, ArrivedAt: now, Tenant: meta.Tenant, Class: meta.Class, svc: s}
	s.nextReqID++
	s.arrivals++
	if meta.Tenant != "" {
		if s.tenantArrivals == nil {
			s.tenantArrivals = make(map[string]int)
		}
		s.tenantArrivals[meta.Tenant]++
	}
	if s.OnArrival != nil {
		s.OnArrival(now)
	}
	if s.graph != nil {
		s.graphStart(r, now)
	} else {
		r.startStage(now)
	}
	return r
}

// recordDrop accounts one arrival the traffic layer denied admission.
func (s *Service) recordDrop(tenant string) {
	s.admissionDrops++
	if tenant != "" {
		if s.tenantDrops == nil {
			s.tenantDrops = make(map[string]int)
		}
		s.tenantDrops[tenant]++
	}
}

// StartTraffic drives the run's arrivals from a traffic source until
// either maxRequests arrivals (0 = unlimited, denied arrivals count) or
// source exhaustion or the engine's horizon ends the run. The source is
// pulled from the engine's own event chain — each arrival's event asks
// for the next one — so any deterministic Source composes with slicing,
// sharding and steering untouched. Arrivals the source marks Denied are
// counted as admission drops and never enter the service.
func (s *Service) StartTraffic(src traffic.Source, maxRequests int) {
	s.src = src
	s.offeredRate = src.Rate()
	d := &arrivalDriver{svc: s, src: src, max: maxRequests}
	d.schedule(0)
}

// arrivalDriver is the engine event behind every arrival of a traffic
// run. Exactly one arrival is in flight at a time, so the driver holds it
// and reschedules itself for the next.
type arrivalDriver struct {
	svc   *Service
	src   traffic.Source
	max   int // arrival budget, 0 = unlimited
	count int
	next  traffic.Arrival
}

// schedule asks the source for the arrival after prev and schedules it.
func (d *arrivalDriver) schedule(prev float64) {
	a, ok := d.src.Next(prev)
	if !ok {
		return
	}
	d.next = a
	d.svc.engine.Schedule(a.At, d)
}

func (d *arrivalDriver) Fire(float64) {
	a := d.next
	if a.Meta.Denied {
		d.svc.recordDrop(a.Meta.Tenant)
	} else {
		d.svc.injectArrival(a.Meta)
	}
	d.count++
	if d.max == 0 || d.count < d.max {
		d.schedule(a.At)
	}
}

// StartArrivals schedules an open-loop Poisson arrival stream at rate
// requests/second until either maxRequests arrivals (0 = unlimited) or the
// engine's horizon ends the run. It is the scalar compat path: the Poisson
// source is constructed from the same stream fork, at the same rate
// product, as before the traffic.Source redesign, so scalar-configured
// runs reproduce pre-redesign reports byte for byte.
func (s *Service) StartArrivals(rate float64, maxRequests int) {
	s.StartTraffic(traffic.NewPoisson(s.rng.Fork(), rate*s.admissionFactor), maxRequests)
	s.offeredRate = rate
}

// Traffic returns the active arrival source, nil before StartTraffic.
func (s *Service) Traffic() traffic.Source { return s.src }

// ArrivalRate reports the traffic source's current admitted intensity in
// requests/second, 0 before StartTraffic.
func (s *Service) ArrivalRate() float64 {
	if s.src == nil {
		return 0
	}
	return s.src.Rate()
}

// SetArrivalRate changes the offered rate for arrivals generated after
// the next already-scheduled one (one arrival is always in flight). The
// admitted rate is offered × admission factor, so steering the offered
// load composes with an active admission throttle; non-Poisson sources
// interpret the product as a speed factor against their nominal intensity
// (see traffic.Source.SetRate). The rate must be positive; steering that
// wants "off" should instead let the request budget run out.
func (s *Service) SetArrivalRate(rate float64) error {
	if s.src == nil {
		return fmt.Errorf("service: arrivals not started")
	}
	if rate <= 0 {
		return fmt.Errorf("service: arrival rate must be positive, got %g", rate)
	}
	if err := s.src.SetRate(rate * s.admissionFactor); err != nil {
		return err
	}
	s.offeredRate = rate
	return nil
}

// OfferedArrivalRate reports the arrival rate the workload currently
// offers, before admission throttling — what steering scripts move.
func (s *Service) OfferedArrivalRate() float64 { return s.offeredRate }

// AdmissionFactor reports the current admission throttle position in
// (0, 1]: the fraction of the offered arrival rate actually admitted.
func (s *Service) AdmissionFactor() float64 { return s.admissionFactor }

// SetAdmissionFactor sets the admission throttle: from the next
// interarrival draw on, the traffic source runs at offered × f. f is a
// fraction in (0, 1]; 1 admits everything. The throttle multiplies the
// offered rate rather than replacing it, so it composes with rate-step
// and diurnal steering instead of overwriting their script.
func (s *Service) SetAdmissionFactor(f float64) error {
	if f <= 0 || f > 1 {
		return fmt.Errorf("service: admission factor must be in (0, 1], got %g", f)
	}
	s.admissionFactor = f
	if s.src != nil {
		return s.src.SetRate(s.offeredRate * f)
	}
	return nil
}

// AdmissionDrops reports how many arrivals the traffic layer denied
// (per-tenant token buckets); 0 for unthrottled sources.
func (s *Service) AdmissionDrops() int { return s.admissionDrops }

// TenantArrivals reports admitted request counts by tenant, nil for
// untenanted traffic. The returned map is the live counter — read, don't
// mutate.
func (s *Service) TenantArrivals() map[string]int { return s.tenantArrivals }

// TenantDrops reports denied request counts by tenant, nil when nothing
// was denied.
func (s *Service) TenantDrops() map[string]int { return s.tenantDrops }

// QueuedExecutions reports the number of executions waiting in instance
// queues across the whole deployment (excluding the ones in service,
// including cancelled-but-unswept entries) — the live dashboard's pressure
// gauge.
func (s *Service) QueuedExecutions() int {
	q := 0
	for _, c := range s.components {
		for _, in := range c.Instances {
			q += in.QueueLen()
		}
	}
	return q
}

// BusyInstances reports how many instance servers are currently occupied.
func (s *Service) BusyInstances() int {
	b := 0
	for _, c := range s.components {
		for _, in := range c.Instances {
			if in.Busy() {
				b++
			}
		}
	}
	return b
}

// completeRequest records a finished request.
func (s *Service) completeRequest(r *Request, now float64) {
	s.completed++
	s.collector.RecordOverall(now, now-r.ArrivedAt)
	if r.Tenant != "" {
		s.collector.RecordTenantOverall(r.Tenant, now, now-r.ArrivedAt)
	}
}

// Allocation returns the current component→node allocation array (the
// paper's A[m]), using each component's primary instance.
func (s *Service) Allocation() []int {
	a := make([]int, len(s.components))
	for i, c := range s.components {
		a[i] = c.Primary().NodeID()
	}
	return a
}
