// Package profiling implements the offline profiling runs the paper trains
// its regressions from (§IV-A: "training samples are obtained from
// profiling runs or historical running logs").
//
// A profiling run co-locates one component with a configured background on
// an otherwise idle node, issues a batch of probe requests back-to-back,
// and records the measured mean service time against the (noisily)
// monitored contention vector. The predictor only ever sees these
// measurements — never the simulator's ground-truth law directly.
package profiling

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/predictor"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/xrand"
)

// Config controls profiling fidelity.
type Config struct {
	// Probes is the number of probe requests averaged per sample. The
	// sample's measurement error shrinks as 1/√Probes.
	Probes int
	// MonitorNoiseSigma is the relative noise on the recorded contention
	// vector, mirroring monitor.Config.NoiseSigma.
	MonitorNoiseSigma float64
	// Repeats is how many samples to take per background configuration.
	Repeats int
	// Degree is the polynomial degree of the per-resource regressions.
	Degree int
	// Pool, when non-nil, shards TrainStageModels' profiling measurements
	// across its workers. Each (stage, background) measurement draws from
	// its own stream, seeded from a seed drawn in canonical order, and
	// fills its own sample slot, so the training set — and the trained
	// models — are bit-identical at any shard count. Nil profiles inline.
	Pool *shard.Pool
}

func (c Config) withDefaults() Config {
	if c.Probes <= 0 {
		c.Probes = 300
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	if c.Degree <= 0 {
		c.Degree = 2
	}
	return c
}

// MeasureServiceTime runs one profiling measurement: the mean of `probes`
// service-time draws for a component with the given base time under the
// given background contention. This is what a real profiling run measures
// by timing back-to-back probe requests.
func MeasureServiceTime(law service.InterferenceLaw, base float64, background cluster.Vector, probes int, src *xrand.Source) float64 {
	return law.SampleSum(base, background, probes, src) / float64(probes)
}

// ProfileBackgrounds produces one training sample per background
// configuration (times Repeats): the noisy monitored contention vector
// paired with the measured mean service time.
func ProfileBackgrounds(law service.InterferenceLaw, base float64, backgrounds []cluster.Vector, cfg Config, src *xrand.Source) []predictor.Sample {
	cfg = cfg.withDefaults()
	samples := make([]predictor.Sample, len(backgrounds)*cfg.Repeats)
	for bi, bg := range backgrounds {
		profileOne(law, base, bg, cfg, src, samples[bi*cfg.Repeats:(bi+1)*cfg.Repeats])
	}
	return samples
}

// profileOne is one profiling unit: Repeats samples of one component class
// under one background, drawn from the given stream (its own, when units
// fan out across a pool). Each sample records what the monitor would
// observe — contention saturated at node capacity (node.Contention clamps
// the same way) plus measurement noise — because training inputs must live
// on the same scale as the runtime monitor's readings.
func profileOne(law service.InterferenceLaw, base float64, bg cluster.Vector, cfg Config, src *xrand.Source, out []predictor.Sample) {
	for rep := 0; rep < cfg.Repeats; rep++ {
		u := bg.Clamp(law.Capacity)
		if cfg.MonitorNoiseSigma > 0 {
			for r := 0; r < cluster.NumResources; r++ {
				u[r] *= src.LogNormalMean(1, cfg.MonitorNoiseSigma)
			}
		}
		out[rep] = predictor.Sample{U: u, X: MeasureServiceTime(law, base, bg, cfg.Probes, src)}
	}
}

// TrainStageModels profiles and trains one service-time model per stage of
// the topology. Only one component per stage class needs profiling — the
// paper's scalability argument (§VI-D) — because components of a stage are
// homogeneous.
//
// Profiling dominates PCS's setup cost (stages × backgrounds × probes
// service-time draws), and its units are independent, so this is the
// largest sharded region of a run: one stream per (stage, background)
// unit, its seed drawn from src in canonical order up front (the draw
// Fork makes, so a unit's stream is the one src.Fork would give it);
// units fan out across the pool's workers, each shard reseeding one
// source per unit, and their samples fold back in (stage, background,
// repeat) order before each stage's regression is fit.
func TrainStageModels(topo service.Topology, law service.InterferenceLaw, backgrounds []cluster.Vector, cfg Config, src *xrand.Source) ([]*predictor.ServiceTimeModel, error) {
	cfg = cfg.withDefaults()
	nStages, nbg := len(topo.Stages), len(backgrounds)
	units := nStages * nbg
	seeds := make([]int64, units)
	for u := range seeds {
		seeds[u] = src.Int63()
	}
	samples := make([]predictor.Sample, units*cfg.Repeats)
	cfg.Pool.Run(units, func(_, lo, hi int) {
		unit := xrand.New(seeds[lo])
		for u := lo; u < hi; u++ {
			if u > lo {
				unit.Reseed(seeds[u])
			}
			spec := topo.Stages[u/nbg]
			profileOne(law, spec.BaseServiceTime, backgrounds[u%nbg], cfg, unit,
				samples[u*cfg.Repeats:(u+1)*cfg.Repeats])
		}
	})

	models := make([]*predictor.ServiceTimeModel, nStages)
	for si, spec := range topo.Stages {
		stageSamples := samples[si*nbg*cfg.Repeats : (si+1)*nbg*cfg.Repeats]
		m, err := predictor.Train(stageSamples, cfg.Degree)
		if err != nil {
			return nil, fmt.Errorf("profiling: training stage %d (%s): %w", si, spec.Name, err)
		}
		models[si] = m
	}
	return models, nil
}
