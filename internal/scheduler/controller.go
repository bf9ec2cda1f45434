package scheduler

import (
	"slices"

	"repro/internal/monitor"
	"repro/internal/predictor"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// ControllerConfig wires the PCS control loop: monitor → predictor →
// scheduler → migration enforcement, once per scheduling interval.
type ControllerConfig struct {
	// Interval is the scheduling interval in virtual seconds. The paper
	// used 600 s against minutes-long batch jobs; the simulation compresses
	// job lifetimes to tens of seconds, so the default interval is 10 s.
	Interval float64
	// Scheduler carries ε and the migration cap.
	Scheduler Config
	// Queue selects the latency formula (M/G/1 by default).
	Queue predictor.QueueModel
	// Params bounds the queueing formula near saturation.
	Params predictor.LatencyParams
	// MigrationDelayMin/Max bound the uniform migration latency applied to
	// each enforced migration (the paper reports ≤3 s via Storm/ZooKeeper
	// redeployment).
	MigrationDelayMin, MigrationDelayMax float64
	// FallbackLambda is used while the monitor has not yet observed enough
	// arrivals to estimate λ.
	FallbackLambda float64
	// Pool, when non-nil, shards performance-matrix construction and the
	// Algorithm 2 updates of every scheduling interval across its workers
	// (see predictor.MatrixInput.Pool). Decisions are bit-identical at any
	// shard count.
	Pool *shard.Pool
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.Interval <= 0 {
		c.Interval = 10
	}
	if c.Params.RhoMax <= 0 {
		c.Params = predictor.DefaultLatencyParams()
	}
	if c.MigrationDelayMax <= 0 {
		c.MigrationDelayMin, c.MigrationDelayMax = 1, 3
	}
	if c.MigrationDelayMin < 0 || c.MigrationDelayMin > c.MigrationDelayMax {
		c.MigrationDelayMin = c.MigrationDelayMax / 2
	}
	return c
}

// Controller is the PCS runtime: it periodically rebuilds the performance
// matrix from monitored state and enforces the greedy schedule by migrating
// component instances.
type Controller struct {
	cfg    ControllerConfig
	svc    *service.Service
	mon    *monitor.Monitor
	models []*predictor.ServiceTimeModel
	src    *xrand.Source

	ticker  *sim.Ticker
	results []Result

	// A scheduling interval's working storage, kept from one interval to
	// the next: the performance matrix, rebuilt in place, and the
	// component states and node windows it is built from.
	mat     predictor.Matrix
	states  []predictor.ComponentState
	windows monitor.NodeWindows

	// Intervals counts scheduling rounds executed.
	Intervals int
	// BuildErrors counts rounds skipped because the matrix could not be
	// built (e.g. no monitor samples yet); LastErr keeps the most recent
	// cause for diagnostics.
	BuildErrors int
	LastErr     error
}

// NewController creates the PCS control loop over a running service. The
// per-stage models come from offline profiling (profiling.TrainStageModels).
func NewController(svc *service.Service, mon *monitor.Monitor, models []*predictor.ServiceTimeModel, src *xrand.Source, cfg ControllerConfig) *Controller {
	return &Controller{
		cfg:    cfg.withDefaults(),
		svc:    svc,
		mon:    mon,
		models: models,
		src:    src,
	}
}

// Start arms the periodic scheduling loop on the service's engine.
func (c *Controller) Start() {
	c.ticker = c.svc.Engine().Every(c.cfg.Interval, func(float64) { c.RunInterval() })
}

// Stop disarms the loop.
func (c *Controller) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

// Results returns per-interval scheduling results.
func (c *Controller) Results() []Result { return c.results }

// TotalMigrations sums enforced migrations across intervals.
func (c *Controller) TotalMigrations() int {
	n := 0
	for _, r := range c.results {
		n += len(r.Decisions)
	}
	return n
}

// MatrixInput assembles the predictor input from the service's current
// allocation and the monitor's windows — the hand-off from §III's monitors
// to §IV's predictor. The input's slices are storage the controller
// reuses: they are valid until the next call or scheduling interval.
func (c *Controller) MatrixInput() predictor.MatrixInput {
	comps := c.svc.Components()
	c.states = slices.Grow(c.states[:0], len(comps))[:len(comps)]
	states := c.states
	for i, comp := range comps {
		in := comp.Primary()
		// Per-VM monitors (Oprofile in the paper, §III) measure each
		// component's demand independently, so readings for identical
		// components differ by a small measurement error. This also
		// breaks exact prediction ties between same-stage components on
		// the same node, which would otherwise stall the greedy search on
		// plateaus.
		demand := in.Demand()
		for r := range demand {
			demand[r] *= c.src.LogNormalMean(1, 0.02)
		}
		states[i] = predictor.ComponentState{
			Stage:  comp.Stage,
			Node:   in.NodeID(),
			Demand: demand,
		}
	}
	lambda := c.mon.ArrivalRate()
	if lambda <= 0 {
		lambda = c.cfg.FallbackLambda
	}
	return predictor.MatrixInput{
		Components:  states,
		NumStages:   c.svc.NumStages(),
		NumNodes:    c.svc.Cluster().NumNodes(),
		NodeSamples: c.mon.AllNodeSamples(&c.windows),
		Lambda:      lambda,
		Models:      c.models,
		Queue:       c.cfg.Queue,
		Params:      c.cfg.Params,
		Pool:        c.cfg.Pool,
	}
}

// RunInterval executes one scheduling interval immediately: rebuild the
// matrix, run Algorithm 1, and enforce the chosen migrations with the
// configured migration delay.
func (c *Controller) RunInterval() {
	c.Intervals++
	res, err := rebuildAndSchedule(&c.mat, c.MatrixInput(), c.cfg.Scheduler)
	if err != nil {
		// No monitored samples yet (e.g. the first interval of a cold
		// start); skip this round rather than abort the run.
		c.BuildErrors++
		c.LastErr = err
		return
	}
	for _, d := range res.Decisions {
		inst := c.svc.Component(d.Component).Primary()
		delay := c.src.Uniform(c.cfg.MigrationDelayMin, c.cfg.MigrationDelayMax)
		// An instance still mid-migration from a previous interval is
		// skipped; the scheduler will reconsider it next round.
		_ = inst.MigrateTo(d.To, delay)
	}
	c.results = append(c.results, res)
}
