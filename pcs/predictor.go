package pcs

import (
	"fmt"

	"repro/internal/predictor"
)

// queueModelFor parses the RunSpec.QueueModel string.
func queueModelFor(s string) (predictor.QueueModel, error) {
	switch s {
	case "", "mg1":
		return predictor.MG1, nil
	case "mm1":
		return predictor.MM1, nil
	case "none":
		return predictor.NoQueue, nil
	default:
		return predictor.MG1, fmt.Errorf("pcs: unknown queue model %q (want mg1, mm1 or none)", s)
	}
}

// ExpectedLatencyMG1 exposes the paper's Eq. 2 for library users: the
// expected latency of an M/G/1 component given its mean service time
// (seconds), service-time variance and arrival rate (requests/second).
func ExpectedLatencyMG1(meanServiceTime, serviceTimeVariance, arrivalRate float64) float64 {
	return predictor.ExpectedLatency(predictor.MG1, meanServiceTime, serviceTimeVariance,
		arrivalRate, predictor.DefaultLatencyParams())
}

// StageLatency exposes Eq. 3: a stage's latency is the maximum of its
// parallel components' latencies.
func StageLatency(componentLatencies []float64) float64 {
	return predictor.StageLatency(componentLatencies)
}

// OverallLatency exposes Eq. 4: the overall latency of a sequential-stage
// service is the sum of stage latencies.
func OverallLatency(stageLatencies []float64) float64 {
	return predictor.OverallLatency(stageLatencies)
}
