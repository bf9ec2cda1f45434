package pcs

import (
	"fmt"
	"io"
	"math"

	"repro/internal/cluster"
	"repro/internal/lane"
	"repro/internal/monitor"
	"repro/internal/policy"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/scheduler"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Simulation is one fully wired simulation world that the caller drives:
// cluster, batch interference, service, monitor and (for PCS) the
// scheduling controller, assembled by NewSimulation but not yet run.
// Callers advance it with RunTo or Step, observe it with Snapshot at any
// point, and close it with Finish. Driving a Simulation step by step and
// calling Run produce bit-identical Results for the same RunSpec: the
// engine's event order does not depend on where the run is sliced.
type Simulation struct {
	opts RunSpec // fully resolved (defaults + scenario applied)
	sc   scenario.Scenario

	engine  *sim.Engine
	cluster *cluster.Cluster
	gen     *workload.Generator
	svc     *service.Service
	mon     *monitor.Monitor
	ctrl    *scheduler.Controller // nil unless Technique == PCS
	pool    *shard.Pool           // nil unless Shards > 1
	plane   *lane.Plane           // nil unless RunSpec.Lanes > 0

	// pol, when non-nil, is the run's closed-loop policy, evaluated by an
	// engine ticker at PolicyInterval cadence; policyLog records the
	// actions it applied.
	pol       policy.Policy
	policyLog []PolicyAction

	// trafficName is the arrival source's name when the run was built
	// from a TrafficSpec, "" on the scalar compat path (Result.Traffic
	// must stay absent there to keep scalar reports byte-identical).
	trafficName string

	horizon  float64
	finished bool
	result   Result

	// Sampling state (SampleEvery). Sampling slices RunTo at the sample
	// times instead of scheduling engine events, so an observed run
	// executes exactly the event sequence an unobserved one does.
	sampleInterval float64
	nextSample     float64
	onSample       func(Snapshot)
}

// NewSimulation resolves spec against its scenario, builds the whole world
// (topology placement, batch generator, monitor, and — for PCS — profiling,
// model training and the controller), and schedules the initial events:
// batch-job arrivals, monitor samples, scheduling intervals and the request
// stream. No virtual time passes until the caller advances the clock. It
// fills defaults but does not Validate; a spec that still names a
// GraphFile is resolved through Options() first.
func NewSimulation(spec RunSpec) (*Simulation, error) {
	if spec.GraphFile != "" {
		var err error
		if spec, err = spec.Options(); err != nil {
			return nil, err
		}
	}
	o := spec.withDefaults()
	sc, err := resolveScenario(o)
	if err != nil {
		return nil, err
	}
	o = o.applyScenario(sc)
	root := xrand.New(o.Seed ^ 0x5ca1ab1e)

	// The shard pool parallelises the run's window-barrier work. A nil
	// pool (Shards ≤ 1) is the sequential path; every consumer treats it
	// so, which keeps single-shard runs on the exact pre-sharding code.
	var pool *shard.Pool
	if o.Shards > 1 {
		pool = shard.NewPool(o.Shards)
	}
	fail := func(err error) (*Simulation, error) {
		pool.Close()
		return nil, err
	}

	engine := sim.NewEngine()
	cl := cluster.New(o.Nodes, cluster.DefaultCapacity())

	gen := workload.NewGenerator(engine, cl, root.Fork(), workload.GeneratorConfig{
		TargetConcurrency: o.BatchConcurrency,
		MinInputMB:        o.MinInputMB,
		MaxInputMB:        o.MaxInputMB,
		TwoPhase:          o.TwoPhaseJobs > 0,
	})

	policy, err := policyFor(o.Technique, o.CancelDelaySeconds)
	if err != nil {
		return fail(err)
	}

	duration := float64(o.Requests) / o.ArrivalRate
	topo := sc.Topology(o.SearchComponents)

	// The laned data plane needs every cross-class message to pay a
	// transit; the only configurable delay is the cancellation delay,
	// which is relayed through the root class and so consumes two.
	var plane *lane.Plane
	if o.Lanes > 0 {
		if o.CancelDelaySeconds > 0 && o.CancelDelaySeconds < 2*service.LaneTransitDelay {
			return fail(fmt.Errorf(
				"pcs: laned execution needs CancelDelaySeconds >= %g (two network transits) or cancellation disabled, got %g",
				2*service.LaneTransitDelay, o.CancelDelaySeconds))
		}
		plane, err = lane.New(service.LaneTransitDelay, service.MaxLaneClasses(topo, o.Nodes))
		if err != nil {
			return fail(err)
		}
	}

	// A DAG scenario ships a graph.Spec; compile it into the runtime plan
	// the service executes instead of the linear stage walk.
	var gplan *service.GraphPlan
	if sc.Graph != nil {
		gplan, err = sc.Graph.Plan()
		if err != nil {
			return fail(fmt.Errorf("pcs: scenario %q: %w", sc.Name, err))
		}
	}

	svc, err := service.New(engine, cl, root.Fork(), policy, service.Config{
		Topology: topo,
		Warmup:   duration * o.WarmupFraction,
		Pool:     pool,
		Lanes:    plane,
		Graph:    gplan,
	})
	if err != nil {
		return fail(err)
	}

	mon := monitor.New(engine, cl, root.Fork(), monitor.Config{
		NoiseSigma: o.MonitorNoiseSigma,
		Pool:       pool,
	})
	svc.OnArrival = mon.RecordArrival

	var ctrl *scheduler.Controller
	if o.Technique == PCS {
		queue, err := queueModelFor(o.QueueModel)
		if err != nil {
			return fail(err)
		}
		// Training backgrounds mirror the paper's profiling: single
		// co-runners swept across kinds and input sizes (strongly
		// informative per-resource samples), plus random multi-job mixes
		// for coverage of co-location.
		backgrounds := workload.KindSizeGrid(workload.JobKinds(),
			workload.LinearSizes(12, o.MinInputMB, o.MaxInputMB))
		backgrounds = append(backgrounds,
			workload.TrainingMixes(root.Fork(), o.TrainingMixes, 3, o.MinInputMB, o.MaxInputMB)...)
		models, err := profiling.TrainStageModels(topo, svc.Law(), backgrounds, profiling.Config{
			Probes:            o.ProfilingProbes,
			MonitorNoiseSigma: o.MonitorNoiseSigma,
			Degree:            o.RegressionDegree,
			Pool:              pool,
		}, root.Fork())
		if err != nil {
			return fail(err)
		}
		ctrl = scheduler.NewController(svc, mon, models, root.Fork(), scheduler.ControllerConfig{
			Interval: o.SchedulingInterval,
			Scheduler: scheduler.Config{
				Epsilon:       o.EpsilonSeconds,
				MaxMigrations: o.MaxMigrationsPerInterval,
			},
			Queue:          queue,
			FallbackLambda: o.ArrivalRate,
			Pool:           pool,
		})
	}

	// Start the world: batch interference, monitoring, scheduling,
	// arrivals. These only schedule events; execution belongs to the
	// caller.
	gen.Start()
	mon.Start()
	if ctrl != nil {
		ctrl.Start()
	}
	// The arrival path: a RunSpec.Traffic spec wins, then the scenario's
	// scripted traffic, then the scalar compat shim. The spec's source is
	// built from the same service-stream fork StartArrivals takes, so an
	// explicit {Kind: "poisson"} spec reproduces the scalar path's draws
	// exactly.
	trafficName := ""
	tspec := o.Traffic
	if tspec == nil {
		tspec = sc.Traffic
	}
	if tspec == nil {
		svc.StartArrivals(o.ArrivalRate, o.Requests)
	} else {
		src, err := tspec.New(svc.RNG().Fork(), o.ArrivalRate)
		if err != nil {
			return fail(fmt.Errorf("pcs: %w", err))
		}
		svc.StartTraffic(src, o.Requests)
		trafficName = src.Name()
	}

	s := &Simulation{
		opts:        o,
		sc:          sc,
		engine:      engine,
		cluster:     cl,
		gen:         gen,
		svc:         svc,
		mon:         mon,
		ctrl:        ctrl,
		pool:        pool,
		plane:       plane,
		horizon:     duration + o.DrainSeconds,
		trafficName: trafficName,
	}
	if err := s.applySteering(duration); err != nil {
		return fail(err)
	}
	pol, err := resolvePolicy(o.Policy, sc)
	if err != nil {
		return fail(err)
	}
	s.pol = pol
	s.startPolicy()
	return s, nil
}

// resolveScenario picks the run's deployment: a custom RunSpec.Graph
// becomes an unregistered DAG scenario (Scenario must then be empty — a
// run deploys one service); otherwise the named scenario is looked up in
// the registry.
func resolveScenario(o RunSpec) (scenario.Scenario, error) {
	if o.Graph == nil {
		return scenario.Get(o.Scenario)
	}
	if o.Scenario != "" {
		return scenario.Scenario{}, fmt.Errorf(
			"pcs: a run deploys one service: set Scenario or Graph, not both (got scenario %q and graph %q)",
			o.Scenario, o.Graph.Name)
	}
	return scenario.FromGraph(o.Graph)
}

// applySteering translates the scenario's steering script (if any) into
// Controller actions over the arrival window. The script is pure data and
// the actions are scheduled before any virtual time passes, so steered
// scenarios keep the same determinism guarantee as unsteered ones.
func (s *Simulation) applySteering(window float64) error {
	st := s.sc.Steering
	if st == nil {
		return nil
	}
	ctrl := s.Controller()
	for _, f := range st.Faults {
		if err := ctrl.FailNodeAt(f.FailAt*window, f.Node); err != nil {
			return fmt.Errorf("pcs: scenario %q steering: %w", s.sc.Name, err)
		}
		if f.RestoreAt > f.FailAt {
			if err := ctrl.RestoreNodeAt(f.RestoreAt*window, f.Node); err != nil {
				return fmt.Errorf("pcs: scenario %q steering: %w", s.sc.Name, err)
			}
		}
	}
	for _, rs := range st.RateSteps {
		if err := ctrl.SetArrivalRateAt(rs.At*window, rs.Factor*s.opts.ArrivalRate); err != nil {
			return fmt.Errorf("pcs: scenario %q steering: %w", s.sc.Name, err)
		}
	}
	if d := st.Diurnal; d != nil {
		if err := ctrl.ModulateArrivalRate(window/d.Cycles, d.Amplitude, d.StepsPerCycle); err != nil {
			return fmt.Errorf("pcs: scenario %q steering: %w", s.sc.Name, err)
		}
	}
	return nil
}

// Options returns the fully resolved spec the simulation runs with:
// defaults filled and scenario defaults applied.
func (s *Simulation) Options() RunSpec { return s.opts }

// Scenario returns the name of the scenario the simulation deploys.
func (s *Simulation) Scenario() string { return s.sc.Name }

// Now returns the current virtual time in seconds.
func (s *Simulation) Now() float64 { return s.engine.Now() }

// Horizon returns the virtual time at which Finish stops the run: the
// arrival window plus the drain period.
func (s *Simulation) Horizon() float64 { return s.horizon }

// Service exposes the simulated service for callers embedding PCS-style
// scheduling in their own setups (the examples drive it directly).
func (s *Simulation) Service() *service.Service { return s.svc }

// NextEventTime reports the virtual time of the next pending event —
// control-plane or, in laned mode, data-plane — false if the world has
// none left.
func (s *Simulation) NextEventTime() (float64, bool) {
	at, ok := s.engine.PeekNextTime()
	if s.plane != nil {
		if pat, pok := s.plane.NextEventTime(); pok && (!ok || pat < at) {
			at, ok = pat, true
		}
	}
	return at, ok
}

// advance moves the whole world — engine and, in laned mode, the data
// plane — to virtual time t.
func (s *Simulation) advance(t float64) float64 {
	if s.plane != nil {
		s.plane.Advance(s.engine, t)
		return s.engine.Now()
	}
	return s.engine.Run(t)
}

// SampleEvery installs a sampling callback: from now on, fn observes a
// Snapshot every interval seconds of virtual time as the clock advances
// through RunTo, Step or Finish. Sampling is observationally free — it
// schedules no events, draws no randomness and mutates nothing, so a
// sampled run produces a Result bit-identical to an unsampled one (pinned
// by tests). Under RunTo/Finish each sample is taken with the clock exactly
// at its sample time; under Step, samples fire after the event that carries
// the clock across them. One sampler per simulation; installing a second is
// an error.
func (s *Simulation) SampleEvery(interval float64, fn func(Snapshot)) error {
	if interval <= 0 {
		return fmt.Errorf("pcs: sample interval must be positive, got %g", interval)
	}
	// An interval below the clock's resolution near the horizon would stop
	// advancing nextSample once the run nears its end and spin forever.
	if s.horizon+interval == s.horizon {
		return fmt.Errorf("pcs: sample interval %g is below the clock resolution near the horizon %g",
			interval, s.horizon)
	}
	if fn == nil {
		return fmt.Errorf("pcs: nil sample callback")
	}
	if s.onSample != nil {
		return fmt.Errorf("pcs: sampler already installed")
	}
	s.sampleInterval = interval
	s.nextSample = s.engine.Now() + interval
	s.onSample = fn
	return nil
}

// takeDueSamples fires the callback for every sample time the clock has
// reached. Progress is forced even if a rounding tie leaves the addition
// stationary, so the loop can never spin.
func (s *Simulation) takeDueSamples() {
	for s.nextSample <= s.engine.Now() {
		s.onSample(s.Snapshot())
		next := s.nextSample + s.sampleInterval
		if next <= s.nextSample {
			next = math.Nextafter(s.nextSample, math.Inf(1))
		}
		s.nextSample = next
	}
}

// Step executes exactly one pending event, advancing the clock to it. In
// laned mode the granularity is one event *time* instead: every
// data-plane and control-plane event at the next pending instant executes
// together (the laned contract orders an instant's events by class, not
// by one global sequence, so the instant is its unit). Step returns
// false — executing nothing — once the next event lies beyond the
// horizon or no events remain. A loop over Step executes exactly the
// events RunTo(Horizon()) would; the clock then rests at the last
// executed event rather than the horizon until Finish (or RunTo) rounds
// it up.
func (s *Simulation) Step() bool {
	if s.plane != nil {
		next, ok := s.NextEventTime()
		if !ok || next > s.horizon {
			return false
		}
		s.advance(next)
		if s.onSample != nil {
			s.takeDueSamples()
		}
		return true
	}
	next, ok := s.engine.PeekNextTime()
	if !ok || next > s.horizon {
		return false
	}
	stepped := s.engine.Step()
	if stepped && s.onSample != nil {
		s.takeDueSamples()
	}
	return stepped
}

// RunTo advances the simulation to virtual time t (clamped to the horizon
// — past it the world has no more scheduled work; shrink or grow runs via
// the RunSpec instead). It returns the clock after the advance. RunTo is
// idempotent for t <= Now(). With a sampler installed the advance is
// internally sliced at the sample times; the executed event sequence is
// identical either way.
func (s *Simulation) RunTo(t float64) float64 {
	if t > s.horizon {
		t = s.horizon
	}
	if t <= s.engine.Now() {
		return s.engine.Now()
	}
	if s.onSample == nil {
		return s.advance(t)
	}
	for s.engine.Now() < t {
		stop := t
		if s.nextSample < stop {
			stop = s.nextSample
		}
		s.advance(stop)
		s.takeDueSamples()
	}
	return s.engine.Now()
}

// Snapshot is a mid-run observation of a simulation, cheap enough to take
// every few virtual seconds. Latency metrics cover post-warmup
// observations up to Now.
type Snapshot struct {
	// Now and Horizon locate the run: Progress == Now/Horizon.
	Now, Horizon float64
	// Arrivals and Completed count requests so far; InFlight is the
	// requests still undecided: Arrivals − Completed − Failed − TimedOut.
	Arrivals, Completed, InFlight int
	// Failed and TimedOut count requests terminated unsuccessfully so far
	// — non-zero only for service-DAG scenarios (omitted from JSON when
	// zero, so pre-DAG snapshot encodings are unchanged).
	Failed   int `json:",omitempty"`
	TimedOut int `json:",omitempty"`
	// Migrations and SchedulingIntervals count PCS activity so far.
	Migrations, SchedulingIntervals int
	// BatchJobsStarted counts interference jobs so far.
	BatchJobsStarted int
	// PendingEvents and FiredEvents describe the world's event queues: the
	// engine's plus, in laned mode, the data plane's class-keyed queue —
	// both counts are lane-count-independent because the executed event
	// set is.
	PendingEvents int
	FiredEvents   uint64
	// DataPlane names the request path's execution mode: "laned" for the
	// laned data plane, empty for the sequential engine
	// loop (omitted from JSON then, so sequential snapshot encodings stay
	// exactly as before — see Result.DataPlane).
	DataPlane string `json:",omitempty"`
	// AvgOverallMs and P99ComponentMs are the paper's two metrics over
	// the post-warmup observations recorded so far.
	AvgOverallMs, P99ComponentMs float64
	// OfferedRate is the intensity the workload currently offers in
	// requests/second — what rate steps and diurnal steering move.
	// AdmittedRate is the intensity the traffic source actually runs at:
	// offered × AdmissionFactor. The two gauges are named explicitly
	// because they genuinely differ whenever an admission policy
	// throttles.
	OfferedRate, AdmittedRate float64
	// AdmissionDrops counts arrivals denied by per-tenant token buckets
	// so far (0 for unthrottled traffic). This is the traffic layer's
	// hard admission control; AdmissionFactor below is the closed-loop
	// soft throttle — they compose.
	AdmissionDrops int
	// QueuedExecutions counts executions waiting in instance queues across
	// the deployment; BusyInstances counts occupied servers. Together they
	// are the instantaneous service-pressure gauges of the live dashboard.
	QueuedExecutions, BusyInstances int
	// MeanCoreUtilization and MaxCoreUtilization summarise node core
	// saturation in [0, 1] across the cluster; FailedNodes counts nodes
	// currently failed by steering.
	MeanCoreUtilization, MaxCoreUtilization float64
	FailedNodes                             int
	// ActiveReplicas is the per-component replica count dispatch currently
	// spreads over, WorkFactor the per-request work multiplier, and
	// AdmissionFactor the admitted fraction of the offered arrival rate —
	// the closed-loop actuator positions. ActiveReplicas starts at the
	// technique's deployed count (1 for Basic/PCS, k for RED-k, 2 for
	// reissue); the factors are 1 unless a policy or steering moves them.
	// AdmittedRate above is OfferedRate × AdmissionFactor.
	ActiveReplicas  int
	WorkFactor      float64
	AdmissionFactor float64
	// PolicyActions counts the actuations the run's policy has applied so
	// far (0 when no policy is in play).
	PolicyActions int
}

// Snapshot observes the running world without perturbing it.
func (s *Simulation) Snapshot() Snapshot {
	rep := s.svc.Collector().Report()
	snap := Snapshot{
		Now:              s.engine.Now(),
		Horizon:          s.horizon,
		Arrivals:         s.svc.Arrivals(),
		Completed:        s.svc.Completed(),
		InFlight:         s.svc.Arrivals() - s.svc.Completed() - s.svc.Failed() - s.svc.TimedOut(),
		Failed:           s.svc.Failed(),
		TimedOut:         s.svc.TimedOut(),
		Migrations:       s.svc.Migrations(),
		BatchJobsStarted: s.gen.Started(),
		PendingEvents:    s.engine.Pending(),
		FiredEvents:      s.engine.Fired(),
		AvgOverallMs:     rep.AvgOverallMs,
		P99ComponentMs:   rep.P99ComponentMs,
		OfferedRate:      s.svc.OfferedArrivalRate(),
		AdmittedRate:     s.svc.ArrivalRate(),
		AdmissionDrops:   s.svc.AdmissionDrops(),
		QueuedExecutions: s.svc.QueuedExecutions(),
		BusyInstances:    s.svc.BusyInstances(),
		FailedNodes:      s.cluster.FailedNodes(),
		ActiveReplicas:   s.svc.ActiveReplicas(),
		WorkFactor:       s.svc.WorkFactor(),
		AdmissionFactor:  s.svc.AdmissionFactor(),
		PolicyActions:    len(s.policyLog),
	}
	if s.plane != nil {
		snap.DataPlane = "laned"
		snap.PendingEvents += s.plane.Pending()
		snap.FiredEvents += s.plane.Fired()
	}
	var sum float64
	for _, n := range s.cluster.Nodes() {
		u := n.Utilization(cluster.Core)
		sum += u
		if u > snap.MaxCoreUtilization {
			snap.MaxCoreUtilization = u
		}
	}
	snap.MeanCoreUtilization = sum / float64(s.cluster.NumNodes())
	if s.ctrl != nil {
		snap.SchedulingIntervals = s.ctrl.Intervals
	}
	return snap
}

// Finish runs the remaining events up to the horizon (through the sampler,
// if one is installed) and reports the run's Result. Finishing an already
// finished simulation returns the same Result again.
func (s *Simulation) Finish() Result {
	if s.finished {
		return s.result
	}
	s.RunTo(s.horizon)

	// Past the horizon nothing records (RunTo clamps, Step refuses later
	// events), so the report may sort the collector's latencies in place.
	rep := s.svc.Collector().FinalReport()
	res := Result{
		Technique:        s.opts.Technique.String(),
		Scenario:         s.sc.Name,
		ArrivalRate:      s.opts.ArrivalRate,
		Policy:           s.PolicyName(),
		PolicyActions:    len(s.policyLog),
		AvgOverallMs:     rep.AvgOverallMs,
		P99ComponentMs:   rep.P99ComponentMs,
		OverallP50Ms:     rep.Overall.P50,
		OverallP99Ms:     rep.Overall.P99,
		OverallMaxMs:     rep.Overall.Max,
		ComponentMeanMs:  rep.Component.Mean,
		ComponentP50Ms:   rep.Component.P50,
		StageMeanMs:      rep.StageMeanMs,
		Arrivals:         s.svc.Arrivals(),
		Completed:        s.svc.Completed(),
		Migrations:       s.svc.Migrations(),
		BatchJobsStarted: s.gen.Started(),
		VirtualSeconds:   s.engine.Now(),
		Failed:           s.svc.Failed(),
		TimedOut:         s.svc.TimedOut(),
		Traffic:          s.trafficName,
		AdmissionDrops:   s.svc.AdmissionDrops(),
		Tenants:          s.tenantResults(),
	}
	if s.plane != nil {
		res.DataPlane = "laned"
	}
	if s.svc.GraphPlanned() {
		gs := s.svc.GraphStats()
		res.Graph = &GraphCounters{
			Retries:          gs.Retries,
			BreakerTrips:     gs.BreakerTrips,
			BreakerFastFails: gs.BreakerFastFails,
			CacheHits:        gs.CacheHits,
			CacheMisses:      gs.CacheMisses,
			StorageWrites:    gs.StorageWrites,
			AsyncCalls:       gs.AsyncCalls,
			AsyncFailures:    gs.AsyncFailures,
		}
	}
	if s.ctrl != nil {
		res.SchedulingIntervals = s.ctrl.Intervals
	}
	s.finished = true
	s.result = res
	// The run is over; release the shard workers and the traffic source's
	// file handle, if it holds one. Late observers — Snapshot, a
	// re-entrant Finish — only read, and a closed pool would degrade any
	// further region to inline execution anyway.
	s.pool.Close()
	s.closeTraffic()
	return res
}

// closeTraffic releases resources held by the traffic source (a trace
// replay's file handle); sources without resources ignore it.
func (s *Simulation) closeTraffic() {
	if c, ok := s.svc.Traffic().(io.Closer); ok {
		c.Close()
	}
}

// TrafficErr reports the error that stopped the traffic source early — a
// trace file that broke mid-replay — or nil for sources that cannot fail
// or have not. A run whose Arrivals fall short of Requests should check
// it to distinguish "trace ended" from "trace broke".
func (s *Simulation) TrafficErr() error {
	if e, ok := s.svc.Traffic().(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Close releases the simulation's shard workers and the traffic source's
// resources without running it to the horizon — for callers abandoning a
// run mid-flight. Finish closes them itself; closing twice is a no-op,
// and a closed simulation can still be advanced (regions just run inline,
// with identical results — though a closed trace replay stops supplying
// arrivals).
func (s *Simulation) Close() {
	s.pool.Close()
	s.closeTraffic()
}
