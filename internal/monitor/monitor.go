// Package monitor implements the paper's cost-effective online monitors
// (§III): a periodic sampler of per-node resource-contention vectors (the
// role Perf/Oprofile/proc play on the testbed) and a request-arrival-rate
// estimator fed from the service's request log.
//
// Samples carry multiplicative measurement noise so the predictor works
// from realistic observations rather than the simulator's exact state.
package monitor

import (
	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Config controls sampling cadence and fidelity.
type Config struct {
	// Period is the sampling period in seconds (the paper samples
	// system-level contention once per second).
	Period float64
	// Window is the number of samples retained per node; the predictor
	// derives service-time mean and variance from this window.
	Window int
	// NoiseSigma is the relative standard deviation of multiplicative
	// measurement noise on every contention metric. 0 disables noise;
	// 0.02 is the default used in the evaluation.
	NoiseSigma float64
	// RateWindow is the horizon in seconds of the arrival-rate estimate.
	RateWindow float64
	// Pool, when non-nil, shards each sampling pass across its workers:
	// node i's contention read, noise draws and ring append are node-local,
	// and the noise comes from node i's private stream, so the sampled
	// windows are bit-identical at any shard count. Nil samples inline.
	Pool *shard.Pool
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = 1
	}
	if c.Window <= 0 {
		c.Window = 10
	}
	if c.RateWindow <= 0 {
		c.RateWindow = 10
	}
	return c
}

// Monitor samples a cluster's contention state on a fixed period and keeps
// a per-node ring of recent samples.
type Monitor struct {
	cfg     Config
	engine  *sim.Engine
	cluster *cluster.Cluster
	// srcs holds one noise stream per node, forked in node order at
	// construction. Per-node streams make each node's draw sequence a
	// function of (node, sample index) alone, which is what lets a sharded
	// sampling pass reproduce the sequential one bit for bit.
	srcs []*xrand.Source

	rings  []ring
	ticker *sim.Ticker

	arrivalTimes []float64 // ring of recent arrival timestamps
	arrivalNext  int
	arrivalSeen  int
}

type ring struct {
	samples []cluster.Vector
	next    int
	size    int
}

func (r *ring) add(v cluster.Vector) {
	r.samples[r.next] = v
	r.next = (r.next + 1) % len(r.samples)
	if r.size < len(r.samples) {
		r.size++
	}
}

// copyTo copies the retained samples into dst[:r.size], oldest first.
func (r *ring) copyTo(dst []cluster.Vector) {
	// Oldest-first order keeps snapshots deterministic.
	start := r.next - r.size
	if start < 0 {
		start += len(r.samples)
	}
	for i := 0; i < r.size; i++ {
		dst[i] = r.samples[(start+i)%len(r.samples)]
	}
}

func (r *ring) snapshot() []cluster.Vector {
	out := make([]cluster.Vector, r.size)
	r.copyTo(out)
	return out
}

// New creates a monitor over the cluster. Call Start to begin sampling.
func New(e *sim.Engine, cl *cluster.Cluster, src *xrand.Source, cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:          cfg,
		engine:       e,
		cluster:      cl,
		srcs:         make([]*xrand.Source, cl.NumNodes()),
		rings:        make([]ring, cl.NumNodes()),
		arrivalTimes: make([]float64, 4096),
	}
	for i := range m.rings {
		m.rings[i].samples = make([]cluster.Vector, cfg.Window)
		m.srcs[i] = src.Fork()
	}
	return m
}

// Start begins periodic sampling, taking an immediate first sample so the
// predictor has data from t=0.
func (m *Monitor) Start() {
	m.sample()
	m.ticker = m.engine.Every(m.cfg.Period, func(float64) { m.sample() })
}

// Stop halts sampling.
func (m *Monitor) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// sample takes one monitoring pass over the cluster. The pass is a window
// barrier: node state is frozen while it runs (it executes inside a single
// engine event), each node's work touches only that node's stream and
// ring, so sharding it changes the wall clock and nothing else.
func (m *Monitor) sample() {
	nodes := m.cluster.Nodes()
	m.cfg.Pool.Run(len(nodes), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := nodes[i].Contention()
			if m.cfg.NoiseSigma > 0 {
				for r := 0; r < cluster.NumResources; r++ {
					v[r] *= m.srcs[i].LogNormalMean(1, m.cfg.NoiseSigma)
				}
			}
			m.rings[i].add(v)
		}
	})
}

// NodeSamples returns the retained contention samples of a node,
// oldest first.
func (m *Monitor) NodeSamples(nodeID int) []cluster.Vector {
	return m.rings[nodeID].snapshot()
}

// AllNodeSamples returns the sample window of every node, indexed by node
// ID — the bulk input to performance-matrix construction. The windows are
// capacity-capped slices of one backing array, so the call makes two
// allocations whatever the node count.
func (m *Monitor) AllNodeSamples() [][]cluster.Vector {
	total := 0
	for i := range m.rings {
		total += m.rings[i].size
	}
	backing := make([]cluster.Vector, total)
	out := make([][]cluster.Vector, len(m.rings))
	for i := range m.rings {
		n := m.rings[i].size
		out[i] = backing[:n:n]
		m.rings[i].copyTo(out[i])
		backing = backing[n:]
	}
	return out
}

// RecordArrival logs one request arrival; wire it to Service.OnArrival.
func (m *Monitor) RecordArrival(now float64) {
	m.arrivalTimes[m.arrivalNext] = now
	m.arrivalNext = (m.arrivalNext + 1) % len(m.arrivalTimes)
	m.arrivalSeen++
}

// ArrivalRate estimates the current request arrival rate λ in requests per
// second, from arrivals within the configured rate window. It falls back
// to the full retained history when the window is sparse.
func (m *Monitor) ArrivalRate() float64 {
	now := m.engine.Now()
	n := m.arrivalSeen
	if n > len(m.arrivalTimes) {
		n = len(m.arrivalTimes)
	}
	if n == 0 {
		return 0
	}
	count := 0
	oldest := now
	for i := 0; i < n; i++ {
		t := m.arrivalTimes[i]
		if now-t <= m.cfg.RateWindow {
			count++
			if t < oldest {
				oldest = t
			}
		}
	}
	if count < 2 {
		return 0
	}
	span := now - oldest
	if span <= 0 {
		return 0
	}
	return float64(count) / span
}
