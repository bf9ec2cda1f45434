// Package scheduler implements the paper's component-level scheduling
// algorithm (§V): at each scheduling interval, build the performance
// matrix, then greedily pick the migration with the largest predicted
// reduction in overall service latency (ties broken by the migrated
// component's own latency reduction), commit it, incrementally update the
// matrix (Algorithm 2, implemented by predictor.Matrix.Migrate), and repeat
// until no remaining migration beats the threshold ε.
package scheduler

import (
	"time"

	"repro/internal/predictor"
)

// Config parameterises Algorithm 1.
type Config struct {
	// Epsilon is the migration threshold ε in seconds of predicted overall
	// latency reduction; migrations predicted to gain less are throttled
	// (the paper uses 5 ms = 5 % of the 100 ms acceptable latency).
	Epsilon float64
	// MaxMigrations caps migrations per interval; 0 means unlimited (the
	// algorithm naturally stops after at most m migrations because each
	// component is removed from the candidate set once migrated).
	MaxMigrations int
}

// Decision is one chosen migration.
type Decision struct {
	Component int
	From, To  int
	// Gain is the predicted reduction in overall service latency (s).
	Gain float64
	// SelfGain is the predicted reduction in the component's own latency.
	SelfGain float64
}

// Result summarises one scheduling interval.
type Result struct {
	Decisions []Decision
	// PredictedBefore/After are the predicted overall latencies around the
	// chosen migrations (s).
	PredictedBefore, PredictedAfter float64
	// AnalysisTime is the wall time spent building the matrix (Fig. 7's
	// "analysis"); SearchTime covers the greedy loop including matrix
	// updates (Fig. 7's "searching").
	AnalysisTime, SearchTime time.Duration
}

// Schedule runs Algorithm 1 on a pre-built matrix. The matrix's virtual
// allocation is advanced in place; callers enforce the returned decisions
// on the real system.
func Schedule(mat *predictor.Matrix, cfg Config) Result {
	res := Result{PredictedBefore: mat.CurrentOverall()}
	start := time.Now()
	for {
		if cfg.MaxMigrations > 0 && len(res.Decisions) >= cfg.MaxMigrations {
			break
		}
		i, j, gain, ok := mat.Best()
		if !ok || gain <= cfg.Epsilon {
			break
		}
		from := mat.Allocation()[i]
		self := mat.SelfGain(i, j)
		mat.Migrate(i, j)
		res.Decisions = append(res.Decisions, Decision{
			Component: i, From: from, To: j, Gain: gain, SelfGain: self,
		})
	}
	res.SearchTime = time.Since(start)
	res.PredictedAfter = mat.CurrentOverall()
	return res
}

// BuildAndSchedule constructs the matrix from the monitored inputs and runs
// Algorithm 1, reporting the analysis and search times separately (the two
// series of Fig. 7).
func BuildAndSchedule(in predictor.MatrixInput, cfg Config) (Result, *predictor.Matrix, error) {
	mat := new(predictor.Matrix)
	res, err := rebuildAndSchedule(mat, in, cfg)
	if err != nil {
		return Result{}, nil, err
	}
	return res, mat, nil
}

// rebuildAndSchedule is BuildAndSchedule into an existing matrix, rebuilt
// in place (predictor.Matrix.Rebuild).
func rebuildAndSchedule(mat *predictor.Matrix, in predictor.MatrixInput, cfg Config) (Result, error) {
	start := time.Now()
	if err := mat.Rebuild(in); err != nil {
		return Result{}, err
	}
	analysis := time.Since(start)
	res := Schedule(mat, cfg)
	res.AnalysisTime = analysis
	return res, nil
}
