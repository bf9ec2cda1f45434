package predictor

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// kernelWindows are the window lengths the kernel tests cover, one node
// each: empty, the lengths below and at Welford's variance guard, and
// the monitor's 10 and a long 37.
var kernelWindows = []int{0, 1, 2, 3, 10, 37}

// kernelMatrix builds a matrix over one node per kernelWindows length,
// with two components per node cycling through three stages trained at
// degrees 1, 2 and 3, and commits one migration between the 10- and
// 37-sample nodes so their windows carry a virtual delta.
func kernelMatrix(t *testing.T) *Matrix {
	t.Helper()
	models := make([]*ServiceTimeModel, 3)
	for s := range models {
		model, err := Train(syntheticSamples(200, 0.02, int64(40+s)), s+1)
		if err != nil {
			t.Fatal(err)
		}
		models[s] = model
	}
	k := len(kernelWindows)
	src := xrand.New(13)
	capacity := cluster.DefaultCapacity()
	var comps []ComponentState
	for n := 0; n < k; n++ {
		for c := 0; c < 2; c++ {
			demand := cluster.Vector{0.9, 6, 8, 6}
			for r := range demand {
				demand[r] *= src.LogNormalMean(1, 0.02)
			}
			comps = append(comps, ComponentState{Stage: len(comps) % len(models), Node: n, Demand: demand})
		}
	}
	nodeSamples := make([][]cluster.Vector, k)
	for n, length := range kernelWindows {
		nodeSamples[n] = make([]cluster.Vector, length)
		for w := range nodeSamples[n] {
			for r := range nodeSamples[n][w] {
				nodeSamples[n][w][r] = capacity[r] * (0.05 + 0.8*src.Float64())
			}
		}
	}
	mat, err := BuildMatrix(MatrixInput{
		Components:  comps,
		NumStages:   len(models),
		NumNodes:    k,
		NodeSamples: nodeSamples,
		Lambda:      90,
		Models:      models,
		Queue:       MG1,
		Params:      DefaultLatencyParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tenSamples := slices.Index(kernelWindows, 10)
	mat.Migrate(2*tenSamples, tenSamples+1) // its first component moves to the 37-sample node
	return mat
}

// TestPredictBatchMatchesScalar pins the window kernel to the scalar
// evaluation by bits: every assignment of the six window lengths to the
// lanes of batches of 1 to 4 — equal lengths in lockstep, mixed and empty
// ones through stats.Welford — against the one-lane latencyOn and the
// sample-by-sample referenceLatency of each lane, over several passes.
// Each lane predicts a different component under a different adjustment,
// some clamped, so lanes never share a result.
func TestPredictBatchMatchesScalar(t *testing.T) {
	const passes = 8
	mat := kernelMatrix(t)
	sc := mat.scratches[0]
	m, k := len(mat.in.Components), mat.in.NumNodes
	capacity := cluster.DefaultCapacity()
	src := xrand.New(17)
	lockstep := 0
	for pass := 0; pass < passes; pass++ {
		for lanes := 1; lanes <= batchLanes; lanes++ {
			combos := 1
			for l := 0; l < lanes; l++ {
				combos *= k
			}
			for combo := 0; combo < combos; combo++ {
				b := batch{n: lanes}
				equal := lanes == batchLanes
				for l, c := 0, combo; l < lanes; l, c = l+1, c/k {
					b.comp[l] = (combo + 5*l + pass) % m
					b.node[l] = c % k
					for r := range b.adj[l] {
						b.adj[l][r] = capacity[r] * (1.2*src.Float64() - 0.7)
					}
					equal = equal && b.node[l] == b.node[0]
				}
				if equal && kernelWindows[b.node[0]] > 0 {
					lockstep++
				}
				mat.predictBatch(&b, sc)
				for l := 0; l < lanes; l++ {
					one := mat.latencyOn(b.comp[l], b.node[l], b.adj[l], sc)
					ref := referenceLatency(mat, b.comp[l], b.node[l], b.adj[l])
					if math.Float64bits(b.out[l]) != math.Float64bits(one) ||
						math.Float64bits(b.out[l]) != math.Float64bits(ref) {
						t.Fatalf("batch of %d, windows %v: lane %d = %v, latencyOn %v, referenceLatency %v",
							lanes, batchWindows(&b), l, b.out[l], one, ref)
					}
				}
			}
		}
	}
	if want := passes * (len(kernelWindows) - 1); lockstep != want {
		t.Fatalf("%d lockstep batches, want %d", lockstep, want)
	}
}

// batchWindows lists the window length of each of b's lanes.
func batchWindows(b *batch) []int {
	lengths := make([]int, b.n)
	for l := range lengths {
		lengths[l] = kernelWindows[b.node[l]]
	}
	return lengths
}

// TestFoldLockstepMatchesWelford pins the lockstep fold to stats.Welford
// by bits on four lanes of signed values of different magnitudes, for
// every non-empty kernel window length. The last value of lane 3 is +Inf,
// a service time predictWindow passes through: Welford's m2 turns NaN on
// it, so a one-sample variance is 0 only through the n ≥ 2 guard.
func TestFoldLockstepMatchesWelford(t *testing.T) {
	src := xrand.New(3)
	for _, n := range kernelWindows[1:] {
		var xs [batchLanes][]float64
		for l := range xs {
			xs[l] = make([]float64, n)
			for i := range xs[l] {
				xs[l][i] = (src.Float64() - 0.3) * math.Pow(10, float64(3*l-4))
			}
		}
		xs[3][n-1] = math.Inf(1)
		mean, variance := foldLockstep(&xs)
		for l := range xs {
			var w stats.Welford
			w.AddAll(xs[l])
			if math.Float64bits(mean[l]) != math.Float64bits(w.Mean()) ||
				math.Float64bits(variance[l]) != math.Float64bits(w.Variance()) {
				t.Fatalf("n=%d lane %d: lockstep (%v, %v), Welford (%v, %v)",
					n, l, mean[l], variance[l], w.Mean(), w.Variance())
			}
		}
	}
}
