// Package pcs is the public API of the PCS reproduction: predictive
// component-level scheduling for reducing tail latency in cloud online
// services (Han et al., ICPP 2015).
//
// The package runs end-to-end simulations of a multi-stage online service
// co-located with short batch jobs on a cluster, under one of six execution
// techniques: Basic, request redundancy (RED-3, RED-5), request reissue
// (RI-90, RI-99), or PCS itself (monitor → performance predictor →
// greedy component-level scheduler). A minimal session:
//
//	result, err := pcs.Run(pcs.RunSpec{
//		Technique:   pcs.PCS,
//		ArrivalRate: 100, // requests/second
//		Requests:    20000,
//		Seed:        1,
//	})
//	fmt.Printf("avg overall %.1f ms, p99 component %.2f ms\n",
//		result.AvgOverallMs, result.P99ComponentMs)
//
// Lower-level building blocks (the predictor's regressions, the M/G/1
// latency model, the performance matrix and Algorithm 1) are exposed via
// the Predictor and Scheduler helpers in this package for users who want to
// embed PCS-style scheduling in their own systems.
package pcs

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/baseline"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/service"
)

// Technique selects the latency-reduction technique of §VI-A.
type Technique int

const (
	// Basic executes each sub-request once, with no redundancy and no
	// scheduling.
	Basic Technique = iota
	// RED3 replicates every sub-request on 3 component replicas.
	RED3
	// RED5 replicates every sub-request on 5 component replicas.
	RED5
	// RI90 reissues a sub-request after the 90th percentile of its
	// class's expected latency.
	RI90
	// RI99 reissues after the 99th percentile.
	RI99
	// PCS runs Basic execution plus predictive component-level scheduling.
	PCS
)

// String returns the paper's name for the technique.
func (t Technique) String() string {
	switch t {
	case Basic:
		return "Basic"
	case RED3:
		return "RED-3"
	case RED5:
		return "RED-5"
	case RI90:
		return "RI-90"
	case RI99:
		return "RI-99"
	case PCS:
		return "PCS"
	default:
		return fmt.Sprintf("technique(%d)", int(t))
	}
}

// MarshalText encodes the technique as its paper name (String), the form
// RunSpec JSON carries.
func (t Technique) MarshalText() ([]byte, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	return []byte(t.String()), nil
}

// UnmarshalText decodes a technique name with ParseTechnique; the empty
// name is Basic.
func (t *Technique) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*t = Basic
		return nil
	}
	v, err := ParseTechnique(string(text))
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// check rejects a value outside the six techniques, which only Go code can
// construct: every decoded name went through ParseTechnique.
func (t Technique) check() error {
	if t < Basic || t > PCS {
		return fmt.Errorf("pcs: unknown technique %d", int(t))
	}
	return nil
}

// Techniques lists all six compared techniques in the paper's order.
func Techniques() []Technique {
	return []Technique{Basic, RED3, RED5, RI90, RI99, PCS}
}

// ParseTechnique parses a technique name as printed by Technique.String.
// Matching is case-insensitive and the dash is optional, so "PCS", "red-3"
// and "RI90" all parse. Every CLI accepts technique names through this one
// parser.
func ParseTechnique(s string) (Technique, error) {
	canon := func(v string) string {
		return strings.ToLower(strings.ReplaceAll(strings.TrimSpace(v), "-", ""))
	}
	for _, t := range Techniques() {
		if canon(t.String()) == canon(s) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("pcs: unknown technique %q (want one of Basic, RED-3, RED-5, RI-90, RI-99, PCS)", s)
}

// Scenarios lists the registered scenario names selectable via
// RunSpec.Scenario.
func Scenarios() []string { return scenario.Names() }

// ScenarioFlagUsage is the usage string every CLI attaches to its -scenario
// flag: the valid names up front so -h shows the choices at a glance, then
// one description line per scenario.
func ScenarioFlagUsage() string {
	return fmt.Sprintf("deployment scenario, one of: %s\n(empty selects %q)\n%s",
		strings.Join(scenario.Names(), ", "), scenario.Default, scenario.Describe())
}

// Policies lists the registered closed-loop policy names selectable via
// RunSpec.Policy (plus the implicit "none").
func Policies() []string { return policy.Names() }

// PolicyFlagUsage is the usage string every CLI attaches to its -policy
// flag.
func PolicyFlagUsage() string {
	return fmt.Sprintf("closed-loop policy, one of: %s, or %q\n(empty keeps the scenario's scripted policy, if any; %q disables it)\n%s",
		strings.Join(policy.Names(), ", "), policy.None, policy.None, policy.Describe())
}

// RunSpec is the one description of a run: every knob a Go caller, a CLI
// flag, an experiment config or an HTTP client can turn, as pure data with
// a stable JSON encoding. pcs-sim, pcs-sweep, pcs-live, the experiments
// drivers and the pcs-serve daemon all run RunSpecs, so "a run" means the
// same thing everywhere: the same RunSpec JSON drives `pcs-sim
// -spec-file`, `POST /v1/runs` and an experiments cell to identical
// reports.
//
// The zero value of every field selects the evaluation default noted on
// it, so the empty spec is the evaluation default run; deployment and
// workload fields whose default says "scenario default" resolve against
// the selected Scenario. Replications and Workers describe the
// replication set a spec-level execution (RunCells, Report, the daemon)
// runs; a single Run ignores them.
type RunSpec struct {
	// Technique is the execution technique (default Basic). JSON carries
	// its paper name; decoding accepts every ParseTechnique spelling, and
	// the empty name is Basic.
	Technique Technique `json:"technique,omitempty"`
	// Scenario names the deployment to simulate (default "nutch-search",
	// the paper's own). See Scenarios() for the registered names. At
	// most one of Scenario, Graph and GraphFile may be set.
	Scenario string `json:"scenario,omitempty"`
	// Policy names the closed-loop policy evaluated at PolicyInterval
	// cadence (see Policies() for the registered names). Empty keeps the
	// scenario's scripted policy, if it has one; "none" disables even
	// that.
	Policy string `json:"policy,omitempty"`
	// PolicyInterval is the virtual seconds between policy evaluations
	// (default 1, the monitoring cadence). It only matters when a policy
	// is in play.
	PolicyInterval float64 `json:"policyInterval,omitempty"`
	// Seed drives all randomness; runs are deterministic given a seed.
	Seed int64 `json:"seed,omitempty"`
	// ArrivalRate is the request arrival rate λ in requests/second
	// (default 100; JSON "rate"). When Traffic is nil it is the whole
	// workload description — the scalar compat path, which constructs a
	// Poisson source exactly as every release before the traffic
	// redesign did (byte-identical reports, pinned by tests). With a
	// Traffic spec in play it remains the run's nominal intensity: the
	// horizon and steering base, and the fallback rate for spec kinds
	// whose Rate field is 0.
	ArrivalRate float64 `json:"rate,omitempty"`
	// Requests is the number of arrivals to generate (default 20000).
	Requests int `json:"requests,omitempty"`
	// Nodes is the cluster size (0 selects the scenario default; 30 for
	// nutch-search, the paper's testbed).
	Nodes int `json:"nodes,omitempty"`
	// SearchComponents is the fan-out of the scenario's dominant stage
	// (0 selects the scenario default; 100 searching components for
	// nutch-search, the paper's Fig. 6 deployment). The remaining stages
	// are sized by the scenario's topology.
	SearchComponents int `json:"searchComponents,omitempty"`
	// Traffic, when non-nil, describes the arrival process — trace
	// replay, session populations, bursty MMPP, multi-tenant mixes with
	// admission control — instead of the scalar Poisson λ. It overrides
	// the scenario's scripted traffic, if any. See TrafficSpec for the
	// kinds and docs/traffic.md for the authoring guide.
	Traffic *TrafficSpec `json:"traffic,omitempty"`
	// Graph, when non-nil, deploys a custom service DAG instead of a
	// registered scenario: the spec is validated and compiled exactly as
	// a built-in DAG scenario's, with the DAG workload defaults around
	// it. GraphFile does the same by naming a JSON GraphSpec file, which
	// Options() loads and inlines under Graph (CLIs fill it from
	// -graph-file). Both pass graph validation before the world is built.
	Graph     *GraphSpec `json:"graph,omitempty"`
	GraphFile string     `json:"graphFile,omitempty"`
	// Shards is the number of worker shards a single simulation fans its
	// window-barrier work across: profiling, performance-matrix
	// construction, monitor sampling and demand ticks — the control-plane
	// cost that grows with cluster size. Results are bit-identical at any
	// shard count; shards move only the wall clock. 0 or 1 runs the
	// sequential path; negative selects all usable cores. Replication
	// runners budget their worker count against Shards so shards ×
	// concurrent replications stays within the machine.
	Shards int `json:"shards,omitempty"`
	// Lanes selects the laned data plane: the request path (dispatch,
	// queueing, service, cancellation, completion) runs as timestamped
	// messages between affinity classes, one per component instance.
	// Cross-class messages pay a 0.2 ms network transit delay
	// (service.LaneTransitDelay), so laned physics differ from the
	// sequential ones. Any value ≥ 1 (or negative) selects the laned
	// physics; the count no longer reaches execution — the plane runs on
	// the simulation's own goroutine — so reports are byte-identical at
	// every lane count (determinism invariant #10). 0 (the default) keeps
	// the sequential data plane and its exact historical reports.
	// Requires CancelDelaySeconds ≥ 2×LaneTransitDelay (or cancellation
	// disabled).
	Lanes int `json:"lanes,omitempty"`
	// Replications is the number of independent replications a spec-level
	// execution aggregates (0 = 1); Workers bounds its worker pool (0 =
	// all cores). Neither ever affects the computed values.
	Replications int `json:"replications,omitempty"`
	Workers      int `json:"workers,omitempty"`

	// WarmupFraction of the run's duration is excluded from metrics
	// (default 0.15; -1 disables warmup exclusion entirely).
	WarmupFraction float64 `json:"warmupFraction,omitempty"`
	// DrainSeconds extends the horizon past the last arrival so in-flight
	// requests can finish (default 10; -1 ends the run at the last
	// arrival).
	DrainSeconds float64 `json:"drainSeconds,omitempty"`
	// CancelDelaySeconds is the redundancy cancellation-message delay
	// (default 3 ms — network plus coordination latency on the paper's
	// 1 GbE/Storm testbed; replicas that start within this window of each
	// other all run to completion, §VI-C's "cancellation messages both in
	// flight" effect; -1 makes cancellation instantaneous).
	CancelDelaySeconds float64 `json:"cancelDelaySeconds,omitempty"`

	// BatchConcurrency is the average number of co-located batch jobs per
	// node (0 selects the scenario default; 2 for nutch-search).
	BatchConcurrency float64 `json:"batchConcurrency,omitempty"`
	// MinInputMB/MaxInputMB bound batch-job input sizes (0 selects the
	// scenario defaults; 1 MB and 10 GB for nutch-search, the paper's
	// Fig. 6 sweep).
	MinInputMB float64 `json:"minInputMB,omitempty"`
	MaxInputMB float64 `json:"maxInputMB,omitempty"`
	// TwoPhaseJobs controls map→reduce demand shifts inside batch jobs:
	// 0 keeps the scenario default, positive forces them on, negative
	// (-1) forces them off.
	TwoPhaseJobs int `json:"twoPhaseJobs,omitempty"`

	// SchedulingInterval is PCS's interval in seconds (default 5; see
	// DESIGN.md on time compression vs the paper's 600 s — batch-job
	// lifetimes are compressed by the same factor).
	SchedulingInterval float64 `json:"schedulingInterval,omitempty"`
	// EpsilonSeconds is the migration threshold ε: migrations predicted to
	// reduce overall latency by less are throttled. The paper sets ε to
	// offset its migration cost (5 ms against a 100 ms acceptable latency,
	// with Storm redeployments). This simulation's time scale is
	// compressed ~20× and migrations are cheap (components keep serving),
	// so the default is 0.000005 (0.005 ms); the threshold ablation bench
	// sweeps it.
	EpsilonSeconds float64 `json:"epsilonSeconds,omitempty"`
	// QueueModel selects the predictor's queueing formula: "mg1"
	// (default), "mm1", or "none".
	QueueModel string `json:"queueModel,omitempty"`
	// MaxMigrationsPerInterval caps migrations per scheduling round
	// (default 20, the upper end of the 10–20 components the paper reports
	// migrating per interval). 0 keeps the default; -1 removes the cap.
	MaxMigrationsPerInterval int `json:"maxMigrationsPerInterval,omitempty"`
	// RegressionDegree is the polynomial degree of the per-resource
	// regressions used by the runtime predictor (default 1: linear fits
	// stay monotone when the scheduler extrapolates beyond the profiled
	// contention range; the Fig. 5 accuracy experiment uses degree 2
	// in-range).
	RegressionDegree int `json:"regressionDegree,omitempty"`
	// TrainingMixes is the number of random co-runner backgrounds profiled
	// when training PCS's models (default 150).
	TrainingMixes int `json:"trainingMixes,omitempty"`
	// ProfilingProbes is the number of probe requests per training sample
	// (default 300).
	ProfilingProbes int `json:"profilingProbes,omitempty"`
	// MonitorNoiseSigma is the relative measurement noise of the monitor
	// (default 0.02).
	MonitorNoiseSigma float64 `json:"monitorNoiseSigma,omitempty"`
}

// withDefaults fills the scenario-independent defaults. For the fields
// whose zero value would otherwise make "disable" unreachable —
// WarmupFraction, DrainSeconds, CancelDelaySeconds — any negative value is
// an explicit "off" (mirroring MaxMigrationsPerInterval: 0 keeps the
// default, -1 disables).
func (o RunSpec) withDefaults() RunSpec {
	if o.ArrivalRate <= 0 {
		o.ArrivalRate = 100
	}
	if o.PolicyInterval <= 0 {
		o.PolicyInterval = 1
	}
	if o.Shards < 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	} else if o.Shards == 0 {
		o.Shards = 1
	}
	if o.Lanes < 0 {
		o.Lanes = 1 // any nonzero count selects the same laned physics
	}
	if o.Requests <= 0 {
		o.Requests = 20000
	}
	if o.WarmupFraction < 0 {
		o.WarmupFraction = 0
	} else if o.WarmupFraction == 0 || o.WarmupFraction >= 1 {
		o.WarmupFraction = 0.15
	}
	if o.DrainSeconds < 0 {
		o.DrainSeconds = 0
	} else if o.DrainSeconds == 0 {
		o.DrainSeconds = 10
	}
	if o.CancelDelaySeconds < 0 {
		o.CancelDelaySeconds = 0
	} else if o.CancelDelaySeconds == 0 {
		o.CancelDelaySeconds = 0.003
	}
	if o.SchedulingInterval <= 0 {
		o.SchedulingInterval = 5
	}
	if o.EpsilonSeconds <= 0 {
		o.EpsilonSeconds = 0.000005
	}
	if o.MaxMigrationsPerInterval == 0 {
		o.MaxMigrationsPerInterval = 20
	} else if o.MaxMigrationsPerInterval < 0 {
		o.MaxMigrationsPerInterval = 0 // scheduler treats 0 as unlimited
	}
	if o.RegressionDegree <= 0 {
		o.RegressionDegree = 1
	}
	if o.QueueModel == "" {
		o.QueueModel = "mg1"
	}
	if o.TrainingMixes <= 0 {
		o.TrainingMixes = 150
	}
	if o.ProfilingProbes <= 0 {
		o.ProfilingProbes = 300
	}
	if o.MonitorNoiseSigma <= 0 {
		o.MonitorNoiseSigma = 0.02
	}
	return o
}

// applyScenario fills the deployment and workload fields the selected
// scenario defaults: cluster size and the batch-interference knobs.
// Explicitly set fields win over the scenario.
func (o RunSpec) applyScenario(sc scenario.Scenario) RunSpec {
	o.Scenario = sc.Name
	if o.Nodes <= 0 {
		o.Nodes = sc.Nodes
	}
	if o.BatchConcurrency <= 0 {
		o.BatchConcurrency = sc.Workload.BatchConcurrency
	}
	if o.MinInputMB <= 0 {
		o.MinInputMB = sc.Workload.MinInputMB
	}
	if o.MaxInputMB <= o.MinInputMB {
		o.MaxInputMB = sc.Workload.MaxInputMB
	}
	if o.TwoPhaseJobs == 0 {
		if sc.Workload.TwoPhaseJobs {
			o.TwoPhaseJobs = 1
		} else {
			o.TwoPhaseJobs = -1
		}
	}
	return o
}

// Result reports one run. Latencies are in milliseconds.
type Result struct {
	Technique   string
	Scenario    string
	ArrivalRate float64
	// Policy names the closed-loop policy the run evaluated ("" when none
	// was in play) and PolicyActions counts the actuations it applied.
	Policy        string
	PolicyActions int

	// AvgOverallMs is the average overall service latency (the paper's
	// second metric).
	AvgOverallMs float64
	// P99ComponentMs is the 99th-percentile component latency (the
	// paper's first metric).
	P99ComponentMs float64

	// Distribution detail.
	OverallP50Ms, OverallP99Ms, OverallMaxMs float64
	ComponentMeanMs, ComponentP50Ms          float64
	StageMeanMs                              []float64

	// Run accounting.
	Arrivals, Completed int
	Migrations          int
	SchedulingIntervals int
	BatchJobsStarted    int
	VirtualSeconds      float64

	// Failed and TimedOut count requests that terminated unsuccessfully —
	// only service-DAG scenarios can produce them (breaker fast-fails and
	// exhausted retry budgets); linear scenarios always complete, so the
	// fields are omitted from JSON when zero and pre-DAG reports keep
	// their exact encoding. Conservation holds on every run:
	// Arrivals = Completed + Failed + TimedOut + still-in-flight.
	Failed   int `json:",omitempty"`
	TimedOut int `json:",omitempty"`

	// Traffic names the arrival source when the run was driven by a
	// TrafficSpec (e.g. "trace:arrivals.ndjson", "sessions:400",
	// "tenants:search+feed"); empty for the scalar Poisson path — these
	// trailing fields are omitted from JSON when zero so scalar-run
	// reports keep their exact pre-redesign encoding.
	Traffic string `json:",omitempty"`
	// AdmissionDrops counts arrivals denied by per-tenant token buckets.
	AdmissionDrops int `json:",omitempty"`
	// Tenants breaks request accounting and latency down by tenant,
	// sorted by name; nil for untenanted traffic.
	Tenants []TenantResult `json:",omitempty"`
	// DataPlane names the request path's execution mode: "laned" when the
	// run used the laned data plane (RunSpec.Lanes ≥ 1),
	// empty for the sequential engine loop. The value depends only on the
	// mode — never on the lane count — so it never breaks byte-identity
	// across lane counts, and sequential reports keep their exact
	// pre-lane encoding.
	DataPlane string `json:",omitempty"`
	// Graph carries the failure-semantics counters of a service-DAG run
	// (retries, breaker activity, storage operations, async calls); nil —
	// and absent from JSON — for linear scenarios.
	Graph *GraphCounters `json:",omitempty"`
}

// GraphCounters are the failure-semantics counters a service-DAG run
// accumulates; Result.Graph reports them for scenarios built from a
// graph.Spec.
type GraphCounters struct {
	// Retries counts retry attempts issued after visit failures (timeouts
	// and breaker fast-fails).
	Retries int `json:",omitempty"`
	// BreakerTrips counts circuit transitions from closed to open;
	// BreakerFastFails counts calls an open circuit rejected without
	// dispatching work.
	BreakerTrips     int `json:",omitempty"`
	BreakerFastFails int `json:",omitempty"`
	// CacheHits, CacheMisses and StorageWrites count storage-node
	// operations by kind.
	CacheHits     int `json:",omitempty"`
	CacheMisses   int `json:",omitempty"`
	StorageWrites int `json:",omitempty"`
	// AsyncCalls counts fire-and-forget edge activations; AsyncFailures
	// counts async call trees that died after retries (swallowed — they
	// never fail the request).
	AsyncCalls    int `json:",omitempty"`
	AsyncFailures int `json:",omitempty"`
}

// Run executes one simulation to its horizon and reports its latency
// metrics. It is a thin wrapper over the steppable Simulation:
// NewSimulation followed by Finish, with nothing in between. Callers who
// want to observe or steer a run mid-flight use Simulation directly.
func Run(spec RunSpec) (Result, error) {
	s, err := NewSimulation(spec)
	if err != nil {
		return Result{}, err
	}
	return s.Finish(), nil
}

func policyFor(tech Technique, cancelDelay float64) (service.Policy, error) {
	switch tech {
	case Basic, PCS:
		return baseline.Basic{}, nil
	case RED3:
		return baseline.NewRedundancy(3, cancelDelay), nil
	case RED5:
		return baseline.NewRedundancy(5, cancelDelay), nil
	case RI90:
		return baseline.NewReissue(90), nil
	case RI99:
		return baseline.NewReissue(99), nil
	default:
		return nil, tech.check()
	}
}
