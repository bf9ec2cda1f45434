package predictor

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// syntheticSamples builds samples from a linear ground truth
// x = base·(1 + Σ αr·ur/capr) where the features co-vary with a common
// driver, as they do along a batch job's input-size sweep.
func syntheticSamples(n int, noise float64, seed int64) []Sample {
	src := xrand.New(seed)
	cap := cluster.DefaultCapacity()
	alpha := cluster.Vector{1.0, 0.5, 0.6, 0.4}
	out := make([]Sample, n)
	for i := range out {
		driver := src.Float64() // common driver: "input size"
		var u cluster.Vector
		for r := 0; r < cluster.NumResources; r++ {
			u[r] = driver * cap[r] * (0.8 + 0.4*src.Float64())
		}
		x := 0.001
		for r := 0; r < cluster.NumResources; r++ {
			x += 0.001 * alpha[r] * u[r] / cap[r]
		}
		if noise > 0 {
			x *= src.LogNormalMean(1, noise)
		}
		out[i] = Sample{U: u, X: x}
	}
	return out
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, 1); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("err = %v, want ErrNoSamples", err)
	}
	if _, err := Train(syntheticSamples(10, 0, 1), 0); err == nil {
		t.Fatal("degree 0 should be rejected")
	}
}

func TestTrainLearnsCovaryingFeatures(t *testing.T) {
	m, err := Train(syntheticSamples(200, 0.02, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every feature co-varies with the driver, so every weight should be
	// substantial.
	for r := 0; r < cluster.NumResources; r++ {
		if m.Weights[r] < 0.5 {
			t.Errorf("weight[%d] = %v, want > 0.5", r, m.Weights[r])
		}
	}
}

func TestPredictIsAccurateInRange(t *testing.T) {
	samples := syntheticSamples(300, 0.02, 3)
	m, err := Train(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	var errSum float64
	for _, s := range samples {
		p := m.Predict(s.U)
		errSum += math.Abs(p-s.X) / s.X
	}
	if avg := errSum / float64(len(samples)); avg > 0.10 {
		t.Fatalf("average in-sample error = %.1f%%, want < 10%%", avg*100)
	}
}

func TestPredictMonotoneWithDegreeOne(t *testing.T) {
	m, err := Train(syntheticSamples(300, 0.02, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	cap := cluster.DefaultCapacity()
	prev := 0.0
	for f := 0.0; f <= 2.0; f += 0.1 { // extrapolates beyond training range
		u := cap.Scale(f)
		p := m.Predict(u)
		if p < prev {
			t.Fatalf("prediction not monotone at scale %v: %v < %v", f, p, prev)
		}
		prev = p
	}
}

func TestPredictClampsToPositive(t *testing.T) {
	// A model trained on a downward-sloping artefact must never predict a
	// non-positive service time.
	samples := []Sample{
		{U: cluster.Vector{0, 0, 0, 0}, X: 0.002},
		{U: cluster.Vector{5, 0, 0, 0}, X: 0.001},
		{U: cluster.Vector{10, 0, 0, 0}, X: 0.0005},
	}
	m, err := Train(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Predict(cluster.Vector{1000, 0, 0, 0}); p <= 0 {
		t.Fatalf("prediction = %v, want positive clamp", p)
	}
}

func TestTrainDegenerateFeatureGetsZeroWeight(t *testing.T) {
	// Feature 3 (NetBW) constant across samples → singular fit → weight 0.
	src := xrand.New(5)
	samples := make([]Sample, 50)
	for i := range samples {
		c := src.Float64() * 10
		samples[i] = Sample{
			U: cluster.Vector{c, c * 2, c * 3, 7},
			X: 0.001 * (1 + c/10),
		}
	}
	m, err := Train(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Weights[cluster.NetBW] != 0 {
		t.Fatalf("constant feature weight = %v, want 0", m.Weights[cluster.NetBW])
	}
	if m.Regs[cluster.NetBW] != nil {
		t.Fatal("constant feature should have nil regression")
	}
	// Prediction still works through the other features.
	if p := m.Predict(samples[0].U); p <= 0 {
		t.Fatalf("prediction = %v", p)
	}
}

func TestTrainAllDegenerateFallsBackToMean(t *testing.T) {
	samples := []Sample{
		{U: cluster.Vector{1, 1, 1, 1}, X: 0.002},
		{U: cluster.Vector{1, 1, 1, 1}, X: 0.004},
	}
	m, err := Train(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Predict(cluster.Vector{1, 1, 1, 1}); math.Abs(p-0.003) > 1e-12 {
		t.Fatalf("fallback prediction = %v, want mean 0.003", p)
	}
}

// TestPredictWindowMatchesPredict pins the resource-major kernel to
// Predict bit for bit: every out[t] must equal Predict of the clamped,
// shifted sample. The models cover degrees 1 and 2 (the unrolled cases)
// and 3 (the generic one), a nil regression beside a zero weight, and all
// weights zero (the fallback mean). The windows hold 0, 1, 10 and 37
// samples plus a uniform one, with shift and adj pushing some coordinates
// below zero; slots of out past the window stay untouched.
func TestPredictWindowMatchesPredict(t *testing.T) {
	type namedModel struct {
		name  string
		model *ServiceTimeModel
	}
	var models []namedModel
	for degree := 1; degree <= 3; degree++ {
		m, err := Train(syntheticSamples(200, 0.02, int64(30+degree)), degree)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, namedModel{fmt.Sprintf("degree=%d", degree), m})
	}
	sparse := *models[1].model
	sparse.Regs[cluster.Cache] = nil
	sparse.Weights[cluster.NetBW] = 0
	flat := *models[0].model
	flat.Weights = [cluster.NumResources]float64{}
	models = append(models, namedModel{"nil regression, zero weight", &sparse}, namedModel{"all weights zero", &flat})

	capacity := cluster.DefaultCapacity()
	shift := [cluster.NumResources]float64{-0.3 * capacity[0], 0.1 * capacity[1], -0.5 * capacity[2], 0}
	adj := [cluster.NumResources]float64{-0.2 * capacity[0], -0.4 * capacity[1], 0.05 * capacity[2], -0.6 * capacity[3]}
	src := xrand.New(9)
	var windows [][]cluster.Vector
	for _, n := range []int{0, 1, 10, 37} {
		win := make([]cluster.Vector, n)
		for i := range win {
			for r := range win[i] {
				win[i][r] = capacity[r] * src.Float64()
			}
		}
		windows = append(windows, win)
	}
	uniform := make([]cluster.Vector, 10)
	for i := range uniform {
		uniform[i] = capacity.Scale(0.5)
	}
	windows = append(windows, uniform)

	clamped := 0
	for _, nm := range models {
		for _, win := range windows {
			out := make([]float64, len(win)+3)
			for i := range out {
				out[i] = math.NaN()
			}
			nm.model.predictWindow(win, shift, adj, out)
			for i, s := range win {
				var u cluster.Vector
				for r := range u {
					u[r] = (s[r] + shift[r]) + adj[r]
					if u[r] < 0 {
						u[r] = 0
						clamped++
					}
				}
				if want := nm.model.Predict(u); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("%s, window of %d: out[%d] = %v, Predict = %v", nm.name, len(win), i, out[i], want)
				}
			}
			for i := len(win); i < len(out); i++ {
				if !math.IsNaN(out[i]) {
					t.Fatalf("%s, window of %d: out[%d] = %v written past the window", nm.name, len(win), i, out[i])
				}
			}
		}
		// A uniform window has zero variance: the x̄, var(x) pair Eq. 2
		// reads off it is (Predict(u), 0).
		xs := make([]float64, len(uniform))
		nm.model.predictWindow(uniform, shift, adj, xs)
		var w stats.Welford
		w.AddAll(xs)
		if w.Variance() != 0 || w.Mean() != xs[0] {
			t.Fatalf("%s: uniform window gives (%v, %v), want (%v, 0)", nm.name, w.Mean(), w.Variance(), xs[0])
		}
	}
	if clamped == 0 {
		t.Fatal("no shifted coordinate fell below zero; the clamp went untested")
	}
	if got := flat.Predict(capacity); got != flat.FallbackMean {
		t.Fatalf("all-zero-weight model predicts %v, want the fallback mean %v", got, flat.FallbackMean)
	}
}

func TestEq1WeightedCombination(t *testing.T) {
	// Hand-build a model and verify Eq. 1's weighted average directly:
	// RG_core(u) = 1 + u with weight 0.5; RG_cache(u) = 2 + 2u, weight 1.
	m := &ServiceTimeModel{}
	var err error
	m.Regs[cluster.Core], err = stats.FitPoly([]float64{0, 1, 2}, []float64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Weights[cluster.Core] = 0.5
	m.Regs[cluster.Cache], err = stats.FitPoly([]float64{0, 1, 2}, []float64{2, 4, 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Weights[cluster.Cache] = 1.0
	u := cluster.Vector{1, 1, 0, 0}
	// (0.5·2 + 1·4) / 1.5 = 4/1.5... RG_core(1)=2, RG_cache(1)=4:
	// (0.5·2 + 1·4)/1.5 = 5/1.5.
	want := 5.0 / 1.5
	if got := m.Predict(u); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Eq.1 prediction = %v, want %v", got, want)
	}
}
