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

// ParseRunSpec decodes a RunSpec from JSON strictly: unknown fields and
// technique names ParseTechnique rejects are errors, so a typo'd knob fails
// loudly instead of silently running the default. It does not Validate —
// callers decide when (LoadRunSpec and Options do).
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
// the technique is one of the six, the scenario and policy are registered,
// the deployment names at most one of Scenario/Graph/GraphFile, an inline
// graph passes graph validation, the traffic spec is well-formed, and the
// counts are non-negative. A valid spec can still fail Options() — a
// GraphFile that does not exist — or NewSimulation — a trace file that
// does not open — because those checks belong to the moment the world is
// built.
func (s RunSpec) Validate() error {
	if err := s.Technique.check(); err != nil {
		return err
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
	if s.Traffic != nil {
		if err := s.Traffic.Validate(); err != nil {
			return fmt.Errorf("pcs: %w", err)
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
	if s.ArrivalRate < 0 {
		return fmt.Errorf("pcs: run spec rate must be non-negative, got %g", s.ArrivalRate)
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

// Options resolves the spec for execution: it validates the spec and loads
// a named GraphFile through graph validation, returning the spec with the
// graph inlined under Graph and GraphFile cleared, so every replication
// built from it reads the file once. RunCells resolves each cell through
// it, and NewSimulation resolves a spec that still names a GraphFile
// through it; defaults are applied later, by NewSimulation.
func (s RunSpec) Options() (RunSpec, error) {
	if err := s.Validate(); err != nil {
		return RunSpec{}, err
	}
	if s.GraphFile != "" {
		g, err := LoadGraphSpec(s.GraphFile)
		if err != nil {
			return RunSpec{}, err
		}
		s.Graph, s.GraphFile = g, ""
	}
	return s, nil
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
	// Base is the cell template; its own Technique/ArrivalRate/Policy are
	// used when the matching axis is empty.
	Base RunSpec `json:"base"`
	// Techniques, Rates and Policies are the sweep axes; an empty axis
	// keeps the Base value. Cells expand rate-major: rates outermost,
	// then techniques, then policies.
	Techniques []Technique `json:"techniques,omitempty"`
	Rates      []float64   `json:"rates,omitempty"`
	Policies   []string    `json:"policies,omitempty"`
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
		techniques = []Technique{s.Base.Technique}
	}
	rates := s.Rates
	if len(rates) == 0 {
		rates = []float64{s.Base.ArrivalRate}
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
		for _, tech := range techniques {
			for _, pol := range policies {
				cell := s.Base
				cell.Technique = tech
				cell.ArrivalRate = rate
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
// and technique names error) and validates it.
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
// structured form of the -scenario/-policy usage listings, for API clients
// that render their own UI (the daemon's introspection endpoints return
// these).
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
