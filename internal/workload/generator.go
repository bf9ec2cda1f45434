package workload

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// GeneratorConfig controls a per-node batch-job stream.
type GeneratorConfig struct {
	// TargetConcurrency is the average number of batch jobs to keep running
	// on each node. Job arrivals are Poisson with rate chosen so that the
	// steady-state concurrency matches this target (Little's law).
	TargetConcurrency float64
	// MinInputMB and MaxInputMB bound the input-size distribution. The
	// paper's Fig. 6 setting sweeps 1 MB to 10 GB.
	MinInputMB, MaxInputMB float64
	// InputAlpha is the bounded-Pareto shape for input sizes; smaller means
	// heavier tail (more large jobs). 0 selects the default of 0.9.
	InputAlpha float64
	// DurationSigma is the lognormal sigma applied as jitter on nominal job
	// duration. 0 selects the default of 0.5.
	DurationSigma float64
	// DemandJitterSigma is the lognormal sigma applied to the demand
	// vector. 0 selects the default of 0.15.
	DemandJitterSigma float64
	// Kinds restricts generated jobs to a subset of archetypes; nil means
	// all six.
	Kinds []JobKind
	// TwoPhase makes jobs shift demand toward I/O halfway through their
	// lifetime (map → reduce), exercising intra-job dynamics.
	TwoPhase bool
	// Heterogeneity spreads per-node batch intensity: each node's
	// concurrency target is drawn uniformly from
	// TargetConcurrency·[1−h, 1+h]. Persistent hot and cold nodes are what
	// make component placement matter (the paper's premise that components
	// on different nodes see different interference). 0 selects the
	// default of 0.6; negative disables the spread.
	Heterogeneity float64
}

func (c *GeneratorConfig) withDefaults() GeneratorConfig {
	out := *c
	if out.TargetConcurrency <= 0 {
		out.TargetConcurrency = 2
	}
	if out.MinInputMB <= 0 {
		out.MinInputMB = 1
	}
	if out.MaxInputMB <= out.MinInputMB {
		out.MaxInputMB = 10 * 1024
	}
	if out.InputAlpha <= 0 {
		out.InputAlpha = 0.7
	}
	if out.DurationSigma <= 0 {
		out.DurationSigma = 0.5
	}
	if out.DemandJitterSigma <= 0 {
		out.DemandJitterSigma = 0.15
	}
	if len(out.Kinds) == 0 {
		out.Kinds = JobKinds()
	}
	if out.Heterogeneity == 0 {
		out.Heterogeneity = 0.6
	} else if out.Heterogeneity < 0 {
		out.Heterogeneity = 0
	}
	if out.Heterogeneity > 1 {
		out.Heterogeneity = 1
	}
	return out
}

// Generator keeps a stream of short batch jobs running on every node of a
// cluster, producing the continuously changing performance interference the
// paper attributes to co-located batch workloads.
type Generator struct {
	cfg     GeneratorConfig
	cluster *cluster.Cluster
	engine  *sim.Engine
	src     *xrand.Source

	nextID  int
	started int
	ended   int
	active  int

	// nodeTarget is each node's concurrency target after the
	// heterogeneity spread.
	nodeTarget []float64
	meanDur    float64
	// sizes is the input-size law, built once from the config.
	sizes xrand.BoundedPareto
}

// NewGenerator creates a generator over the cluster. Call Start to begin
// spawning jobs.
func NewGenerator(e *sim.Engine, cl *cluster.Cluster, src *xrand.Source, cfg GeneratorConfig) *Generator {
	g := &Generator{cfg: cfg.withDefaults(), cluster: cl, engine: e, src: src}
	g.sizes = xrand.NewBoundedPareto(g.cfg.InputAlpha, g.cfg.MinInputMB, g.cfg.MaxInputMB)
	g.nodeTarget = make([]float64, cl.NumNodes())
	h := g.cfg.Heterogeneity
	for i := range g.nodeTarget {
		g.nodeTarget[i] = g.cfg.TargetConcurrency * (1 + h*(2*src.Float64()-1))
	}
	return g
}

// NodeTarget reports the heterogeneity-spread concurrency target of a node.
func (g *Generator) NodeTarget(nodeID int) float64 { return g.nodeTarget[nodeID] }

// Started, Ended and Active report job counts for observability.
func (g *Generator) Started() int { return g.started }

// Ended reports the number of jobs that have completed.
func (g *Generator) Ended() int { return g.ended }

// Active reports the number of currently running jobs.
func (g *Generator) Active() int { return g.active }

// Start seeds each node with an initial set of jobs and schedules Poisson
// job arrivals per node so that the average concurrency per node equals
// TargetConcurrency.
func (g *Generator) Start() {
	for _, n := range g.cluster.Nodes() {
		// Initial population: Poisson around the node's target so nodes
		// start heterogeneous, which is what makes migration useful at
		// t=0.
		init := g.src.Poisson(g.nodeTarget[n.ID])
		for i := 0; i < init; i++ {
			g.spawn(n, true)
		}
		g.scheduleNextArrival(n)
	}
}

// meanDuration estimates the mean job duration under the configured kind
// and input-size distributions by Monte Carlo over a dedicated stream, so
// the arrival rate hits the concurrency target via Little's law. Cached
// after the first call.
func (g *Generator) meanDuration() float64 {
	if g.meanDur > 0 {
		return g.meanDur
	}
	est := g.src.Fork()
	const n = 2000
	sum := 0.0
	for i := 0; i < n; i++ {
		kind := g.cfg.Kinds[est.Intn(len(g.cfg.Kinds))]
		size := g.sizes.Draw(est)
		sum += Duration(kind, size)
	}
	g.meanDur = sum / n
	return g.meanDur
}

func (g *Generator) scheduleNextArrival(n *cluster.Node) {
	rate := g.nodeTarget[n.ID] / g.meanDuration() // arrivals/sec per node
	gap := g.src.Exp(1 / rate)
	g.engine.After(gap, func(now float64) {
		g.spawn(n, false)
		g.scheduleNextArrival(n)
	})
}

// spawn creates one job on node n and schedules its departure. When
// initial is true the job is mid-flight: its remaining lifetime is a
// uniform fraction of a full duration.
func (g *Generator) spawn(n *cluster.Node, initial bool) {
	kind := g.cfg.Kinds[g.src.Intn(len(g.cfg.Kinds))]
	inputMB := g.sizes.Draw(g.src)
	jitter := g.src.LogNormalMean(1, g.cfg.DemandJitterSigma)

	id := fmt.Sprintf("job-%d", g.nextID)
	g.nextID++

	dur := Duration(kind, inputMB) * g.src.LogNormalMean(1, g.cfg.DurationSigma)
	if initial {
		dur *= g.src.Float64() // already partway done
		if dur < 0.5 {
			dur = 0.5
		}
	}

	now := g.engine.Now()
	if g.cfg.TwoPhase {
		job := NewPhasedJob(id, kind, inputMB, jitter)
		job.Start, job.End = now, now+dur
		n.Host(job)
		g.engine.After(dur/2, func(float64) {
			if n.Hosts(id) {
				job.EnterReducePhase()
				n.Refresh()
			}
		})
		g.scheduleEnd(n, id, dur)
	} else {
		job := NewBatchJob(id, kind, inputMB, jitter)
		job.Start, job.End = now, now+dur
		n.Host(job)
		g.scheduleEnd(n, id, dur)
	}
	g.started++
	g.active++
}

func (g *Generator) scheduleEnd(n *cluster.Node, id string, dur float64) {
	g.engine.After(dur, func(float64) {
		if n.Evict(id) {
			g.ended++
			g.active--
		}
	})
}
