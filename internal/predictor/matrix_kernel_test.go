package predictor

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
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

// TestPredictBatchMatchesScalar pins the window path to the scalar
// evaluation by bits: latencyOn against the sample-by-sample
// referenceLatency for every component on every node window length,
// empty and below Welford's variance guard included, over several passes.
// Each call predicts under a different adjustment, some clamped.
func TestPredictBatchMatchesScalar(t *testing.T) {
	const passes = 8
	mat := kernelMatrix(t)
	sc := mat.scratches[0]
	m, k := len(mat.in.Components), mat.in.NumNodes
	capacity := cluster.DefaultCapacity()
	src := xrand.New(17)
	for pass := 0; pass < passes; pass++ {
		for i := 0; i < m; i++ {
			for n := 0; n < k; n++ {
				var adj vec4
				for r := range adj {
					adj[r] = capacity[r] * (1.2*src.Float64() - 0.7)
				}
				one := mat.latencyOn(i, n, adj, sc)
				ref := referenceLatency(mat, i, n, adj)
				if math.Float64bits(one) != math.Float64bits(ref) {
					t.Fatalf("component %d, window of %d: latencyOn %v, referenceLatency %v",
						i, kernelWindows[n], one, ref)
				}
			}
		}
	}
}
