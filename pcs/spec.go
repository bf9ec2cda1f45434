package pcs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/scenario"
)

// GraphSpec is the declarative service-DAG authoring surface, re-exported
// so a custom graph can ride inside a RunSpec (inline under "graph", or by
// reference via "graphFile"). It is exactly internal/graph.Spec: pure data
// with Validate and a pinned JSON parse edge (FuzzSpecValidate), compiled
// into the runtime plan on every run. See docs/scenarios.md for the
// authoring guide.
type GraphSpec = graph.Spec

// RunSpec is the canonical, serializable description of one run: every
// knob a CLI flag, an experiment config or an HTTP client can turn,
// as pure data with a stable JSON encoding. It is the single decode path
// into Options — pcs-sim, pcs-sweep, pcs-live, the experiments drivers and
// the pcs-serve daemon all assemble their Options through it, so "a run"
// means the same thing everywhere: the same RunSpec JSON drives
// `pcs-sim -spec-file`, `POST /v1/runs` and an experiments cell to
// identical reports.
//
// Zero values defer to the same defaults Options documents (and, for the
// deployment fields, to the selected scenario), so the empty spec is the
// evaluation default run. Fields follow Options one for one except:
//
//   - Technique is a name ("PCS", "red-3", ...) parsed by ParseTechnique;
//     empty selects Basic.
//   - Rate is Options.ArrivalRate under its CLI name.
//   - Graph/GraphFile deploy a custom service DAG (below).
//   - Replications and Workers describe the replication set a spec-level
//     execution (Report, the daemon) runs, which single-run Options do not
//     carry.
type RunSpec struct {
	// Technique names the execution technique (ParseTechnique grammar;
	// empty = Basic).
	Technique string `json:"technique,omitempty"`
	// Scenario names the registered deployment (empty = the default
	// scenario). Mutually exclusive with Graph/GraphFile.
	Scenario string `json:"scenario,omitempty"`
	// Policy names the closed-loop policy ("" defers to the scenario's
	// script, "none" disables it).
	Policy string `json:"policy,omitempty"`
	// PolicyInterval is the seconds between policy evaluations (0 = 1).
	PolicyInterval float64 `json:"policyInterval,omitempty"`
	// Seed drives all randomness; runs are deterministic given a seed.
	Seed int64 `json:"seed,omitempty"`
	// Rate is the arrival rate λ in requests/second (0 = 100).
	Rate float64 `json:"rate,omitempty"`
	// Requests is the number of arrivals to generate (0 = 20000).
	Requests int `json:"requests,omitempty"`
	// Nodes is the cluster size (0 = scenario default).
	Nodes int `json:"nodes,omitempty"`
	// SearchComponents is the dominant-stage fan-out (0 = scenario
	// default).
	SearchComponents int `json:"searchComponents,omitempty"`
	// Traffic, when non-nil, describes the arrival process instead of the
	// scalar Poisson λ (see TrafficSpec).
	Traffic *TrafficSpec `json:"traffic,omitempty"`
	// Graph, when non-nil, deploys this inline service DAG instead of a
	// registered scenario; GraphFile does the same by loading a JSON
	// GraphSpec from a file at Options() time. Both pass graph.Validate
	// before the world is built, and at most one of Scenario, Graph and
	// GraphFile may be set.
	Graph     *GraphSpec `json:"graph,omitempty"`
	GraphFile string     `json:"graphFile,omitempty"`
	// Shards and Lanes select the parallel control and data planes
	// (bit-identical results at any value; see Options).
	Shards int `json:"shards,omitempty"`
	Lanes  int `json:"lanes,omitempty"`
	// Replications is the number of independent replications a spec-level
	// execution aggregates (0 = 1); Workers bounds its worker pool (0 =
	// all cores). Neither ever affects the computed values.
	Replications int `json:"replications,omitempty"`
	Workers      int `json:"workers,omitempty"`

	// WarmupFraction, DrainSeconds and CancelDelaySeconds follow the
	// Options conventions (0 = default, -1 = off).
	WarmupFraction     float64 `json:"warmupFraction,omitempty"`
	DrainSeconds       float64 `json:"drainSeconds,omitempty"`
	CancelDelaySeconds float64 `json:"cancelDelaySeconds,omitempty"`

	// BatchConcurrency, MinInputMB, MaxInputMB and TwoPhaseJobs override
	// the scenario's batch-interference defaults (0 keeps them).
	BatchConcurrency float64 `json:"batchConcurrency,omitempty"`
	MinInputMB       float64 `json:"minInputMB,omitempty"`
	MaxInputMB       float64 `json:"maxInputMB,omitempty"`
	TwoPhaseJobs     int     `json:"twoPhaseJobs,omitempty"`

	// SchedulingInterval, EpsilonSeconds, QueueModel,
	// MaxMigrationsPerInterval, RegressionDegree, TrainingMixes and
	// ProfilingProbes tune PCS itself; MonitorNoiseSigma the monitor.
	// Zero keeps each knob's evaluation default.
	SchedulingInterval       float64 `json:"schedulingInterval,omitempty"`
	EpsilonSeconds           float64 `json:"epsilonSeconds,omitempty"`
	QueueModel               string  `json:"queueModel,omitempty"`
	MaxMigrationsPerInterval int     `json:"maxMigrationsPerInterval,omitempty"`
	RegressionDegree         int     `json:"regressionDegree,omitempty"`
	TrainingMixes            int     `json:"trainingMixes,omitempty"`
	ProfilingProbes          int     `json:"profilingProbes,omitempty"`
	MonitorNoiseSigma        float64 `json:"monitorNoiseSigma,omitempty"`
}

// ParseRunSpec decodes a RunSpec from JSON strictly: unknown fields are
// errors, so a typo'd knob fails loudly instead of silently running the
// default. It does not Validate — callers decide when (LoadRunSpec and
// Options do).
func ParseRunSpec(data []byte) (RunSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s RunSpec
	if err := dec.Decode(&s); err != nil {
		return RunSpec{}, fmt.Errorf("pcs: parsing run spec: %w", err)
	}
	// A second document in the same payload is a concatenation mistake,
	// not extra configuration.
	if dec.More() {
		return RunSpec{}, fmt.Errorf("pcs: parsing run spec: trailing data after the spec object")
	}
	return s, nil
}

// LoadRunSpec reads and validates a RunSpec from a JSON file — the
// -spec-file path every CLI shares.
func LoadRunSpec(path string) (RunSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return RunSpec{}, fmt.Errorf("pcs: reading run spec: %w", err)
	}
	s, err := ParseRunSpec(data)
	if err != nil {
		return RunSpec{}, fmt.Errorf("pcs: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return RunSpec{}, fmt.Errorf("pcs: %s: %w", path, err)
	}
	return s, nil
}

// Validate checks the spec's selections without touching the filesystem:
// the technique parses, the scenario and policy are registered, the
// deployment names at most one of Scenario/Graph/GraphFile, an inline
// graph passes graph validation, and the counts are non-negative. A valid
// spec can still fail Options() — a GraphFile that does not exist, a
// traffic spec the run layer rejects — because those checks belong to the
// moment the world is built.
func (s RunSpec) Validate() error {
	if s.Technique != "" {
		if _, err := ParseTechnique(s.Technique); err != nil {
			return err
		}
	}
	named := 0
	for _, set := range []bool{s.Scenario != "", s.Graph != nil, s.GraphFile != ""} {
		if set {
			named++
		}
	}
	if named > 1 {
		return fmt.Errorf("pcs: a run deploys one service: set at most one of scenario, graph and graphFile")
	}
	if s.Scenario != "" {
		if _, err := scenario.Get(s.Scenario); err != nil {
			return err
		}
	}
	if s.Graph != nil {
		if err := s.Graph.Validate(); err != nil {
			return fmt.Errorf("pcs: graph: %w", err)
		}
	}
	if s.Policy != "" {
		if _, _, err := policy.Get(s.Policy); err != nil {
			return fmt.Errorf("pcs: %w", err)
		}
	}
	// A fixed order, so a spec with several bad counts always names the
	// same one.
	for _, c := range []struct {
		name string
		v    int
	}{
		{"requests", s.Requests}, {"nodes", s.Nodes},
		{"searchComponents", s.SearchComponents},
		{"replications", s.Replications}, {"workers", s.Workers},
	} {
		if c.v < 0 {
			return fmt.Errorf("pcs: run spec %s must be non-negative, got %d", c.name, c.v)
		}
	}
	if s.Rate < 0 {
		return fmt.Errorf("pcs: run spec rate must be non-negative, got %g", s.Rate)
	}
	return nil
}

// LoadGraphSpec reads a GraphSpec from a JSON file and validates it — the
// -graph-file path. The format is the graph.Spec encoding FuzzSpecValidate
// pins; field names match Go's (case-insensitively, so lowerCamel JSON
// decodes too).
func LoadGraphSpec(path string) (*GraphSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pcs: reading graph spec: %w", err)
	}
	var g GraphSpec
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("pcs: %s: parsing graph spec: %w", path, err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("pcs: %s: %w", path, err)
	}
	return &g, nil
}

// Options resolves the spec into the Options a simulation runs with —
// the one decode path every entry point shares. It validates the spec,
// loads GraphFile (if named) through graph validation, and maps the
// fields; scenario defaults are applied later by NewSimulation exactly as
// for hand-built Options.
func (s RunSpec) Options() (Options, error) {
	if err := s.Validate(); err != nil {
		return Options{}, err
	}
	var tech Technique
	if s.Technique != "" {
		tech, _ = ParseTechnique(s.Technique) // Validate already vetted it
	}
	g := s.Graph
	if s.GraphFile != "" {
		loaded, err := LoadGraphSpec(s.GraphFile)
		if err != nil {
			return Options{}, err
		}
		g = loaded
	}
	return Options{
		Technique:                tech,
		Scenario:                 s.Scenario,
		Policy:                   s.Policy,
		PolicyInterval:           s.PolicyInterval,
		Seed:                     s.Seed,
		Nodes:                    s.Nodes,
		SearchComponents:         s.SearchComponents,
		ArrivalRate:              s.Rate,
		Traffic:                  s.Traffic,
		Graph:                    g,
		Requests:                 s.Requests,
		Shards:                   s.Shards,
		Lanes:                    s.Lanes,
		WarmupFraction:           s.WarmupFraction,
		DrainSeconds:             s.DrainSeconds,
		BatchConcurrency:         s.BatchConcurrency,
		MinInputMB:               s.MinInputMB,
		MaxInputMB:               s.MaxInputMB,
		TwoPhaseJobs:             s.TwoPhaseJobs,
		CancelDelaySeconds:       s.CancelDelaySeconds,
		SchedulingInterval:       s.SchedulingInterval,
		EpsilonSeconds:           s.EpsilonSeconds,
		MaxMigrationsPerInterval: s.MaxMigrationsPerInterval,
		RegressionDegree:         s.RegressionDegree,
		QueueModel:               s.QueueModel,
		TrainingMixes:            s.TrainingMixes,
		ProfilingProbes:          s.ProfilingProbes,
		MonitorNoiseSigma:        s.MonitorNoiseSigma,
	}, nil
}

// Report executes the spec — Replications independent replications on
// Workers workers, as RunCells over this one cell — and returns its
// canonical aggregate: the MergeStream-normal form with the
// execution-detail Workers field zeroed (Runs is already nil), so the same
// spec yields byte-identical report JSON whether it ran locally, under
// the daemon, or was re-aggregated from a stored stream.
func (s RunSpec) Report() (Aggregate, error) {
	aggs, err := RunCells([]RunSpec{s}, s.Workers, nil)
	if err != nil {
		return Aggregate{}, err
	}
	aggs[0].Workers = 0
	return aggs[0], nil
}

// SweepSpec is the canonical description of a sweep: a Base cell template
// expanded over technique, rate and policy axes. It is the grid shape the
// Fig. 6 sweep, pcs-sweep and the daemon's POST /v1/sweeps all share, so
// a sweep means the same cells everywhere.
//
// Each cell is Base with the axis values substituted and its seed
// decorrelated by the cell's (rate, technique) coordinates — NOT by its
// policy, so a policy-on cell faces exactly the arrival stream and batch
// interference its open-loop twin faced (paired comparison). Adding
// techniques, rates or policies never perturbs existing cells.
type SweepSpec struct {
	// Base is the cell template; its own Technique/Rate/Policy are used
	// when the matching axis is empty.
	Base RunSpec `json:"base"`
	// Techniques, Rates and Policies are the sweep axes; an empty axis
	// keeps the Base value. Cells expand rate-major: rates outermost,
	// then techniques, then policies.
	Techniques []string  `json:"techniques,omitempty"`
	Rates      []float64 `json:"rates,omitempty"`
	Policies   []string  `json:"policies,omitempty"`
}

// Cells expands the sweep into its per-cell RunSpecs in deterministic
// order (rates outer, techniques, then policies). Every cell's Requests
// is floored so the run lasts at least 90 virtual seconds — control loops
// need a meaningful number of intervals even at low rates — and its seed
// is Base.Seed ^ rate<<16 ^ technique<<8, the derivation the Fig. 6 sweep
// has always used, so sweep cells reproduce historical reports exactly.
func (s SweepSpec) Cells() ([]RunSpec, error) {
	if err := s.Base.Validate(); err != nil {
		return nil, fmt.Errorf("pcs: sweep base: %w", err)
	}
	techniques := s.Techniques
	if len(techniques) == 0 {
		techniques = []string{s.Base.Technique}
	}
	rates := s.Rates
	if len(rates) == 0 {
		rates = []float64{s.Base.Rate}
	}
	policies := s.Policies
	if len(policies) == 0 {
		policies = []string{s.Base.Policy}
	}
	var cells []RunSpec
	for _, rate := range rates {
		if rate < 0 {
			return nil, fmt.Errorf("pcs: sweep rate must be non-negative, got %g", rate)
		}
		requests := s.Base.Requests
		if requests <= 0 {
			requests = 20000
		}
		if min := int(90 * rate); requests < min {
			requests = min
		}
		for _, name := range techniques {
			var tech Technique
			if name != "" {
				var err error
				if tech, err = ParseTechnique(name); err != nil {
					return nil, err
				}
			}
			for _, pol := range policies {
				cell := s.Base
				cell.Technique = tech.String()
				cell.Rate = rate
				cell.Requests = requests
				cell.Policy = pol
				cell.Seed = s.Base.Seed ^ int64(rate)<<16 ^ int64(tech)<<8
				if err := cell.Validate(); err != nil {
					return nil, fmt.Errorf("pcs: sweep cell %s/λ=%g/%q: %w", tech, rate, pol, err)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// Validate checks the sweep's base and expands its axes once, reporting
// the first invalid cell.
func (s SweepSpec) Validate() error {
	_, err := s.Cells()
	return err
}

// ParseSweepSpec decodes a SweepSpec from JSON strictly (unknown fields
// error) and validates it.
func ParseSweepSpec(data []byte) (SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s SweepSpec
	if err := dec.Decode(&s); err != nil {
		return SweepSpec{}, fmt.Errorf("pcs: parsing sweep spec: %w", err)
	}
	if dec.More() {
		return SweepSpec{}, fmt.Errorf("pcs: parsing sweep spec: trailing data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return SweepSpec{}, err
	}
	return s, nil
}

// Info is one registry entry — a name with its one-line description — the
// structured form of the Describe* listings, for API clients that render
// their own UI (the daemon's introspection endpoints return these).
type Info struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// ScenarioInfos lists the registered scenarios with their descriptions.
func ScenarioInfos() []Info {
	var out []Info
	for _, name := range scenario.Names() {
		sc := scenario.MustGet(name)
		out = append(out, Info{Name: sc.Name, Description: sc.Description})
	}
	return out
}

// PolicyInfos lists the registered closed-loop policies with their
// descriptions (the implicit "none" is not an entry: it is the absence of
// one).
func PolicyInfos() []Info {
	var out []Info
	for _, p := range policy.List() {
		out = append(out, Info{Name: p.Name, Description: p.Description})
	}
	return out
}

// TechniqueInfos lists the six techniques with one-line summaries, in the
// paper's order.
func TechniqueInfos() []Info {
	desc := map[Technique]string{
		Basic: "single execution, no redundancy and no scheduling",
		RED3:  "replicate every sub-request on 3 component replicas",
		RED5:  "replicate every sub-request on 5 component replicas",
		RI90:  "reissue after the 90th percentile of expected latency",
		RI99:  "reissue after the 99th percentile of expected latency",
		PCS:   "predictive component-level scheduling (monitor → predictor → greedy scheduler)",
	}
	var out []Info
	for _, t := range Techniques() {
		out = append(out, Info{Name: t.String(), Description: desc[t]})
	}
	return out
}
