package workload

import (
	"repro/internal/cluster"
	"repro/internal/xrand"
)

// KindSizeGrid returns the contention vectors of single batch jobs over a
// grid of kinds × input sizes — the co-runner configurations of the paper's
// Fig. 5 prediction-accuracy experiment (Hadoop jobs at 20 sizes, Spark
// jobs at 10 sizes).
func KindSizeGrid(kinds []JobKind, sizesMB []float64) []cluster.Vector {
	out := make([]cluster.Vector, 0, len(kinds)*len(sizesMB))
	for _, k := range kinds {
		for _, s := range sizesMB {
			out = append(out, Demand(k, s))
		}
	}
	return out
}

// TrainingMixes generates n random co-runner contention vectors, each the
// sum of 0–maxJobs batch jobs with random kinds and bounded-Pareto input
// sizes. These stand in for the "historical running logs" the paper trains
// its regressions from: they cover the contention space the service will
// actually encounter, including multi-job co-location.
func TrainingMixes(src *xrand.Source, n, maxJobs int, minMB, maxMB float64) []cluster.Vector {
	if maxJobs < 1 {
		maxJobs = 3
	}
	if minMB <= 0 {
		minMB = 1
	}
	if maxMB <= minMB {
		maxMB = 10 * 1024
	}
	kinds := JobKinds()
	sizes := xrand.NewBoundedPareto(0.9, minMB, maxMB)
	out := make([]cluster.Vector, n)
	for i := range out {
		jobs := src.Intn(maxJobs + 1)
		var u cluster.Vector
		for j := 0; j < jobs; j++ {
			kind := kinds[src.Intn(len(kinds))]
			size := sizes.Draw(src)
			u = u.Add(Demand(kind, size))
		}
		out[i] = u
	}
	return out
}

// LinearSizes returns n input sizes evenly spaced in [minMB, maxMB],
// matching the paper's Fig. 5 sweep (e.g. 20 Hadoop sizes from 50 MB to
// 4 GB and 10 Spark sizes from 200 MB to 7 GB).
func LinearSizes(n int, minMB, maxMB float64) []float64 {
	if n == 1 {
		return []float64{minMB}
	}
	out := make([]float64, n)
	step := (maxMB - minMB) / float64(n-1)
	for i := range out {
		out[i] = minMB + float64(i)*step
	}
	return out
}
