package profiling

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/predictor"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func TestMeasureServiceTimeConverges(t *testing.T) {
	law := service.DefaultLaw(cluster.DefaultCapacity())
	bg := cluster.DefaultCapacity().Scale(0.4)
	want := law.MeanServiceTime(0.001, bg)
	got := MeasureServiceTime(law, 0.001, bg, 20000, xrand.New(1))
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("measured %v, law mean %v", got, want)
	}
}

func TestProfileBackgroundsShapesAndClamping(t *testing.T) {
	law := service.DefaultLaw(cluster.DefaultCapacity())
	over := cluster.DefaultCapacity().Scale(3) // beyond capacity
	under := cluster.DefaultCapacity().Scale(0.2)
	samples := ProfileBackgrounds(law, 0.001, []cluster.Vector{over, under}, Config{
		Probes: 50, Repeats: 2, MonitorNoiseSigma: 0,
	}, xrand.New(2))
	if len(samples) != 4 {
		t.Fatalf("samples = %d, want 4", len(samples))
	}
	cap := law.Capacity
	for _, s := range samples[:2] {
		for r := 0; r < cluster.NumResources; r++ {
			if s.U[r] > cap[r]+1e-9 {
				t.Fatalf("profiled U not clamped at capacity: %v", s.U)
			}
		}
	}
	for _, s := range samples {
		if s.X <= 0 {
			t.Fatalf("non-positive measured service time %v", s.X)
		}
	}
}

func TestTrainStageModelsEndToEnd(t *testing.T) {
	topo := service.NutchTopology(10)
	law := service.DefaultLaw(cluster.DefaultCapacity())
	backgrounds := workload.TrainingMixes(xrand.New(3), 50, 3, 1, 8192)
	models, err := TrainStageModels(topo, law, backgrounds, Config{Probes: 100, Degree: 1}, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 3 {
		t.Fatalf("models = %d", len(models))
	}
	// The Eq. 1 combined model is only unbiased on the training
	// distribution (each single-feature regression conditions on the
	// correlated co-features), so we assert the properties scheduling
	// needs: positive predictions, monotone growth in contention, and
	// stage ordering (searching has the largest base time).
	mid := cluster.DefaultCapacity().Scale(0.3)
	high := cluster.DefaultCapacity().Scale(0.8)
	for si, m := range models {
		lo, hi := m.Predict(mid), m.Predict(high)
		if lo <= 0 || hi <= 0 {
			t.Errorf("stage %d: non-positive predictions %v, %v", si, lo, hi)
		}
		if hi <= lo {
			t.Errorf("stage %d: prediction not increasing in contention (%v → %v)", si, lo, hi)
		}
	}
	if models[1].Predict(mid) <= models[0].Predict(mid) {
		t.Error("searching should be slower than segmenting")
	}
	if models[1].Predict(mid) <= models[2].Predict(mid) {
		t.Error("searching should be slower than aggregating")
	}
}

func TestTrainStageModelsErrorOnNoBackgrounds(t *testing.T) {
	topo := service.NutchTopology(5)
	law := service.DefaultLaw(cluster.DefaultCapacity())
	if _, err := TrainStageModels(topo, law, nil, Config{}, xrand.New(5)); err == nil {
		t.Fatal("no backgrounds accepted")
	}
}

func TestProfiledModelPredictsHeldOutMixes(t *testing.T) {
	// The full chain: profile on one set of mixes, predict another.
	law := service.DefaultLaw(cluster.DefaultCapacity())
	train := workload.TrainingMixes(xrand.New(6), 120, 3, 1, 8192)
	samples := ProfileBackgrounds(law, 0.0008, train, Config{Probes: 200, MonitorNoiseSigma: 0.02}, xrand.New(7))
	model, err := predictor.Train(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	test := workload.TrainingMixes(xrand.New(8), 40, 3, 1, 8192)
	var errSum float64
	for _, bg := range test {
		want := law.MeanServiceTime(0.0008, bg)
		got := model.Predict(bg.Clamp(law.Capacity))
		errSum += math.Abs(got-want) / want
	}
	if avg := errSum / float64(len(test)); avg > 0.12 {
		t.Fatalf("held-out error = %.1f%%, want < 12%%", avg*100)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Probes != 300 || cfg.Repeats != 1 || cfg.Degree != 2 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

// referenceTrain is the per-unit forking scheme TrainStageModels
// replaced: one stream forked per (stage, background) unit up front, in
// unit order, then every unit profiled in turn, one Sample call per probe.
func referenceTrain(t *testing.T, topo service.Topology, law service.InterferenceLaw, backgrounds []cluster.Vector, cfg Config, src *xrand.Source) []*predictor.ServiceTimeModel {
	t.Helper()
	cfg = cfg.withDefaults()
	nbg := len(backgrounds)
	srcs := make([]*xrand.Source, len(topo.Stages)*nbg)
	for u := range srcs {
		srcs[u] = src.Fork()
	}
	models := make([]*predictor.ServiceTimeModel, len(topo.Stages))
	for si, spec := range topo.Stages {
		var samples []predictor.Sample
		for bi, bg := range backgrounds {
			unit := srcs[si*nbg+bi]
			for rep := 0; rep < cfg.Repeats; rep++ {
				u := bg.Clamp(law.Capacity)
				if cfg.MonitorNoiseSigma > 0 {
					for r := 0; r < cluster.NumResources; r++ {
						u[r] *= unit.LogNormalMean(1, cfg.MonitorNoiseSigma)
					}
				}
				sum := 0.0
				for p := 0; p < cfg.Probes; p++ {
					sum += law.Sample(spec.BaseServiceTime, bg, unit)
				}
				samples = append(samples, predictor.Sample{U: u, X: sum / float64(cfg.Probes)})
			}
		}
		m, err := predictor.Train(samples, cfg.Degree)
		if err != nil {
			t.Fatal(err)
		}
		models[si] = m
	}
	return models
}

// TestTrainStageModelsMatchesForkPerUnit pins the reseeded profiling
// streams: at any shard count, every trained coefficient, weight and
// fallback mean equals, by bits, what forking one source per unit and
// profiling sequentially trains, and the parent stream ends where the
// forks leave it.
func TestTrainStageModelsMatchesForkPerUnit(t *testing.T) {
	topo := service.NutchTopology(10)
	law := service.DefaultLaw(cluster.DefaultCapacity())
	backgrounds := workload.TrainingMixes(xrand.New(3), 25, 3, 1, 8192)
	cfg := Config{Probes: 60, Repeats: 2, MonitorNoiseSigma: 0.02, Degree: 2}
	refSrc := xrand.New(9)
	want := referenceTrain(t, topo, law, backgrounds, cfg, refSrc)
	refNext := refSrc.Int63()
	for _, shards := range []int{0, 1, 2, 4} {
		cfg := cfg
		if shards > 0 {
			cfg.Pool = shard.NewPool(shards)
		}
		src := xrand.New(9)
		got, err := TrainStageModels(topo, law, backgrounds, cfg, src)
		cfg.Pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		if next := src.Int63(); next != refNext {
			t.Errorf("shards=%d: parent stream continues at %d, want %d", shards, next, refNext)
		}
		for si := range want {
			g, w := got[si], want[si]
			if math.Float64bits(g.FallbackMean) != math.Float64bits(w.FallbackMean) {
				t.Errorf("shards=%d stage %d: FallbackMean %v, want %v", shards, si, g.FallbackMean, w.FallbackMean)
			}
			for r := 0; r < cluster.NumResources; r++ {
				if math.Float64bits(g.Weights[r]) != math.Float64bits(w.Weights[r]) {
					t.Errorf("shards=%d stage %d resource %d: weight %v, want %v", shards, si, r, g.Weights[r], w.Weights[r])
				}
				if (g.Regs[r] == nil) != (w.Regs[r] == nil) {
					t.Fatalf("shards=%d stage %d resource %d: regression presence differs", shards, si, r)
				}
				if w.Regs[r] == nil {
					continue
				}
				if len(g.Regs[r].Coef) != len(w.Regs[r].Coef) {
					t.Fatalf("shards=%d stage %d resource %d: %d coefficients, want %d",
						shards, si, r, len(g.Regs[r].Coef), len(w.Regs[r].Coef))
				}
				for c, wc := range w.Regs[r].Coef {
					if gc := g.Regs[r].Coef[c]; math.Float64bits(gc) != math.Float64bits(wc) {
						t.Errorf("shards=%d stage %d resource %d: coef %d = %v, want %v", shards, si, r, c, gc, wc)
					}
				}
			}
		}
	}
}
