// Package scenario is the registry of named simulation scenarios: a
// scenario bundles a service topology with the workload/interference
// defaults the world around it should use. The paper evaluates one
// deployment (the Nutch-style search engine); the reproduction grows
// "as many scenarios as you can imagine" by registering more entries here
// and selecting them by name via pcs.RunSpec.Scenario or the -scenario
// flag of the cmd/ tools.
//
// Scenarios are self-describing: Names/Describe let CLIs list what is
// available, and every entry carries enough defaults that
// pcs.Run(pcs.RunSpec{Scenario: name}) is a complete, runnable world.
package scenario

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/service"
	"repro/internal/traffic"
)

// Default is the scenario selected when none is named: the paper's own
// deployment.
const Default = "nutch-search"

// WorkloadDefaults are the batch-interference settings a scenario runs
// under when the caller does not override them.
type WorkloadDefaults struct {
	// BatchConcurrency is the average number of co-located batch jobs per
	// node.
	BatchConcurrency float64
	// MinInputMB and MaxInputMB bound batch-job input sizes.
	MinInputMB, MaxInputMB float64
	// TwoPhaseJobs enables map→reduce demand shifts inside batch jobs.
	TwoPhaseJobs bool
}

// Steering scripts deterministic mid-run interventions for a scenario. The
// simulation layer (pcs) translates it into Controller actions scheduled at
// fixed virtual times when the world is built, so steered runs stay exactly
// as reproducible as unsteered ones: the script is data, all randomness
// still flows from the run's seed.
type Steering struct {
	// Faults fail (and optionally restore) nodes mid-run.
	Faults []Fault
	// Diurnal, if set, modulates the arrival rate sinusoidally.
	Diurnal *Diurnal
	// RateSteps step the arrival rate to a multiple of the run's base λ at
	// fixed fractions of the arrival window — load bursts and sustained
	// overload for the closed-loop policy scenarios.
	RateSteps []RateStep
}

// RateStep sets λ to Factor times the run's base arrival rate at a fixed
// point of the run. Steps are scheduled in slice order; a later step with
// Factor 1 restores the base rate.
type RateStep struct {
	// At is when the step lands, as a fraction of the arrival window in
	// [0, 1).
	At float64
	// Factor multiplies the base arrival rate; it must be positive.
	Factor float64
}

// Fault fails one node partway through the run. Times are fractions of the
// arrival window so the script scales with any -rate/-requests choice.
type Fault struct {
	// Node is the node index to fail. Scenarios should use low indices so
	// the script survives cluster-size overrides; the simulation rejects a
	// fault aimed past the actual cluster.
	Node int
	// FailAt is when the node fails, as a fraction of the arrival window
	// in [0, 1).
	FailAt float64
	// RestoreAt is when it recovers, as a fraction of the arrival window.
	// A value ≤ FailAt means the node never recovers.
	RestoreAt float64
}

// Diurnal modulates the arrival rate as
//
//	λ(t) = base · (1 + Amplitude · sin(2π · t · Cycles / window))
//
// updated in discrete steps so the modulation is identical on every run.
type Diurnal struct {
	// Cycles is how many full sinusoid periods fit in the arrival window.
	Cycles float64
	// Amplitude is the relative swing, in (0, 1) so λ stays positive.
	Amplitude float64
	// StepsPerCycle is how many rate updates approximate each cycle
	// (0 selects 32).
	StepsPerCycle int
}

func (st *Steering) validate(name string) error {
	for i, f := range st.Faults {
		if f.Node < 0 {
			return fmt.Errorf("scenario %q: fault %d on negative node %d", name, i, f.Node)
		}
		if f.FailAt < 0 || f.FailAt >= 1 {
			return fmt.Errorf("scenario %q: fault %d FailAt %g outside [0,1)", name, i, f.FailAt)
		}
		if f.RestoreAt < 0 || f.RestoreAt > 1 {
			return fmt.Errorf("scenario %q: fault %d RestoreAt %g outside [0,1]", name, i, f.RestoreAt)
		}
	}
	for i, rs := range st.RateSteps {
		if rs.At < 0 || rs.At >= 1 {
			return fmt.Errorf("scenario %q: rate step %d At %g outside [0,1)", name, i, rs.At)
		}
		if rs.Factor <= 0 {
			return fmt.Errorf("scenario %q: rate step %d factor %g must be positive", name, i, rs.Factor)
		}
	}
	if d := st.Diurnal; d != nil {
		if d.Cycles <= 0 {
			return fmt.Errorf("scenario %q: diurnal cycles must be positive, got %g", name, d.Cycles)
		}
		if d.Amplitude <= 0 || d.Amplitude >= 1 {
			return fmt.Errorf("scenario %q: diurnal amplitude %g outside (0,1)", name, d.Amplitude)
		}
		if d.StepsPerCycle < 0 {
			return fmt.Errorf("scenario %q: negative diurnal steps", name)
		}
	}
	return nil
}

// Scenario is one named, self-describing deployment.
type Scenario struct {
	// Name is the registry key (e.g. "nutch-search").
	Name string
	// Description is a one-line summary for CLI listings.
	Description string
	// Topology builds the service topology. fanOut sizes the scenario's
	// dominant stage; fanOut <= 0 selects the scenario's default width.
	Topology func(fanOut int) service.Topology
	// DominantStage is the index of the stage that dominates the
	// scenario's latency — the stage fanOut resizes, and the one
	// prediction experiments (Fig. 5) profile.
	DominantStage int
	// Nodes is the default cluster size.
	Nodes int
	// Workload carries the scenario's batch-interference defaults.
	Workload WorkloadDefaults
	// Steering, if non-nil, scripts mid-run interventions (node faults,
	// diurnal load, rate steps) applied deterministically by the
	// simulation layer.
	Steering *Steering
	// Policy, if non-nil, scripts a closed-loop policy for the scenario: a
	// pure-data policy.Spec the simulation layer builds a fresh controller
	// from on every run. The -policy flag overrides it ("none" disables).
	Policy *policy.Spec
	// Traffic, if non-nil, scripts the scenario's arrival process: a
	// pure-data traffic.Spec the simulation layer builds a fresh source
	// from on every run (sessions, traces, bursty MMPP, multi-tenant
	// mixes). Nil keeps the scalar Poisson workload at the run's
	// ArrivalRate; RunSpec.Traffic overrides a scripted spec.
	Traffic *traffic.Spec
	// Graph, if non-nil, makes this a service-DAG scenario: a pure-data
	// graph.Spec the simulation layer compiles into the runtime plan on
	// every run. Register derives Topology and DominantStage from the
	// spec when they are left unset; a scenario that sets both must keep
	// them consistent (one stage per graph node).
	Graph *graph.Spec
}

func (s Scenario) validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if s.Topology == nil {
		return fmt.Errorf("scenario %q: nil topology builder", s.Name)
	}
	if s.Nodes <= 0 {
		return fmt.Errorf("scenario %q: default node count must be positive, got %d", s.Name, s.Nodes)
	}
	topo := s.Topology(0)
	if err := topo.Validate(); err != nil {
		return fmt.Errorf("scenario %q: topology: %w", s.Name, err)
	}
	if s.DominantStage < 0 || s.DominantStage >= len(topo.Stages) {
		return fmt.Errorf("scenario %q: dominant stage %d out of range [0, %d)",
			s.Name, s.DominantStage, len(topo.Stages))
	}
	// Workload errors name the field at fault so a bad registration reads
	// as "fix this knob", not as a struct dump.
	w := s.Workload
	switch {
	case w.BatchConcurrency <= 0:
		return fmt.Errorf("scenario %q: workload BatchConcurrency must be positive, got %g",
			s.Name, w.BatchConcurrency)
	case w.MinInputMB <= 0:
		return fmt.Errorf("scenario %q: workload MinInputMB must be positive, got %g",
			s.Name, w.MinInputMB)
	case w.MaxInputMB <= w.MinInputMB:
		return fmt.Errorf("scenario %q: workload MaxInputMB (%g) must exceed MinInputMB (%g)",
			s.Name, w.MaxInputMB, w.MinInputMB)
	}
	if s.Steering != nil {
		if err := s.Steering.validate(s.Name); err != nil {
			return err
		}
	}
	if s.Policy != nil {
		if err := s.Policy.Validate(); err != nil {
			return fmt.Errorf("scenario %q: policy spec: %w", s.Name, err)
		}
	}
	if s.Traffic != nil {
		if err := s.Traffic.Validate(); err != nil {
			return fmt.Errorf("scenario %q: traffic spec: %w", s.Name, err)
		}
	}
	if s.Graph != nil {
		if err := s.Graph.Validate(); err != nil {
			return fmt.Errorf("scenario %q: graph spec: %w", s.Name, err)
		}
		if got, want := len(topo.Stages), len(s.Graph.Nodes); got != want {
			return fmt.Errorf("scenario %q: graph spec %q has %d nodes but the topology has %d stages",
				s.Name, s.Graph.Name, want, got)
		}
	}
	return nil
}

// FromGraph builds an unregistered scenario around a caller-supplied
// service DAG — the path a -graph-file flag or a RunSpec's inline graph
// takes. The scenario gets the DAG workload defaults the built-in graph
// scenarios use (24 nodes, 2 co-located batch jobs, 1 MB–10 GB inputs),
// its topology and dominant stage derived from the spec, and a
// "graph:<name>" scenario name so reports distinguish custom DAGs from
// registry entries. The spec is validated exactly as a registered
// scenario's would be.
func FromGraph(g *graph.Spec) (Scenario, error) {
	if g == nil {
		return Scenario{}, fmt.Errorf("scenario: nil graph spec")
	}
	if err := g.Validate(); err != nil {
		return Scenario{}, fmt.Errorf("scenario: graph spec: %w", err)
	}
	s := Scenario{
		Name:          "graph:" + g.Name,
		Description:   "custom service DAG loaded at run time",
		Topology:      func(fanOut int) service.Topology { return g.Topology(fanOut) },
		DominantStage: g.DominantIndex(),
		Nodes:         24,
		Workload: WorkloadDefaults{
			BatchConcurrency: 2,
			MinInputMB:       1,
			MaxInputMB:       10 * 1024,
		},
		Graph: g,
	}
	if err := s.validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

var registry = map[string]Scenario{}

// Register adds a scenario to the registry. It returns an error for
// incomplete entries or duplicate names; built-ins register at init and
// panic on failure, since a broken built-in is a programming error. A
// scenario carrying a Graph spec may leave Topology and DominantStage
// unset — they are derived from the spec here, so a DAG scenario is
// authored as pure data plus defaults.
func Register(s Scenario) error {
	if g := s.Graph; g != nil && s.Topology == nil {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("scenario %q: graph spec: %w", s.Name, err)
		}
		s.Topology = func(fanOut int) service.Topology { return g.Topology(fanOut) }
		s.DominantStage = g.DominantIndex()
	}
	if err := s.validate(); err != nil {
		return err
	}
	// Lookups are case-insensitive, so registration must be too: two
	// names differing only by case would make Get's answer depend on map
	// iteration order.
	for name := range registry {
		if strings.EqualFold(name, s.Name) {
			return fmt.Errorf("scenario %q: already registered as %q", s.Name, name)
		}
	}
	registry[s.Name] = s
	return nil
}

// Get looks a scenario up by name (case-insensitive). The empty name
// selects Default. Unknown names error, listing what is registered.
func Get(name string) (Scenario, error) {
	if name == "" {
		name = Default
	}
	if s, ok := registry[name]; ok {
		return s, nil
	}
	// Accept case variations so CLI usage stays forgiving.
	for k, s := range registry {
		if strings.EqualFold(k, name) {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// MustGet is Get for names known at compile time; it panics on error.
func MustGet(name string) Scenario {
	s, err := Get(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names lists the registered scenario names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Describe renders a "name — description" line per registered scenario,
// for CLI usage text.
func Describe() string {
	var b strings.Builder
	for i, name := range Names() {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%s — %s", name, registry[name].Description)
	}
	return b.String()
}
