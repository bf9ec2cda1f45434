// Package cliutil holds the flag wiring the cmd/ binaries share: the
// technique/scenario/policy selectors, the comma-separated list parsers,
// and the production-shaped traffic flags (-trace-file, -tenants). Six
// CLIs registering the same flags by hand drifted in usage text and
// validation; this package is the single copy.
//
// Helpers take an explicit *flag.FlagSet so tests can build throwaway
// sets; the binaries pass flag.CommandLine.
package cliutil

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/pcs"
)

// AddTechnique registers the -technique selector and returns its value.
func AddTechnique(fs *flag.FlagSet) *string {
	return fs.String("technique", "PCS", "execution technique: Basic, RED-3, RED-5, RI-90, RI-99 or PCS")
}

// AddScenario registers the -scenario selector, whose usage text lists
// every registered scenario, and returns its value.
func AddScenario(fs *flag.FlagSet) *string {
	return fs.String("scenario", "", pcs.ScenarioFlagUsage())
}

// AddPolicy registers the -policy selector, whose usage text lists every
// registered closed-loop policy, and returns its value.
func AddPolicy(fs *flag.FlagSet) *string {
	return fs.String("policy", "", pcs.PolicyFlagUsage())
}

// AddLanes registers the -lanes selector for the laned data plane and
// returns its value.
func AddLanes(fs *flag.FlagSet) *int {
	return fs.Int("lanes", 0, "data-plane physics: 0 runs the sequential engine (default physics);\n"+
		"any other value runs the affinity-laned physics, where cross-instance\n"+
		"messages pay a network transit, on the run's own goroutine — reports\n"+
		"are byte-identical at every nonzero value")
}

// ParseTechniques parses a comma-separated technique list ("Basic,PCS").
// The empty string parses to nil, which callers read as their default set
// (all six for the Fig. 6 sweep).
func ParseTechniques(csv string) ([]pcs.Technique, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []pcs.Technique
	for _, s := range strings.Split(csv, ",") {
		t, err := pcs.ParseTechnique(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ParseRemotes parses a comma-separated list of pcs-serve base URLs
// ("http://a:8344,http://b:8344") into the worker list a fleet dispatch
// shards over. The empty string parses to nil — run locally. Entries must
// be http(s) URLs; trailing slashes are trimmed so joined API paths never
// double them.
func ParseRemotes(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []string
	for _, s := range strings.Split(csv, ",") {
		u := strings.TrimRight(strings.TrimSpace(s), "/")
		if u == "" {
			return nil, fmt.Errorf("empty daemon URL in remote list %q", csv)
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("bad daemon URL %q: want http:// or https://", u)
		}
		out = append(out, u)
	}
	return out, nil
}

// ParseRates parses a comma-separated arrival-rate list ("10,20,50").
func ParseRates(csv string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %v", strings.TrimSpace(s), err)
		}
		out = append(out, v)
	}
	return out, nil
}

// TrafficFlags carries the production-shaped traffic selectors shared by
// pcs-sim, pcs-sweep and pcs-live. Register with AddTraffic, then call
// Spec after flag.Parse.
type TrafficFlags struct {
	// TraceFile replays a recorded arrival trace ("trace" kind).
	TraceFile *string
	// Tenants composes Poisson tenants under token-bucket admission
	// ("multi-tenant" kind).
	Tenants *string
}

// AddTraffic registers -trace-file and -tenants and returns their values.
func AddTraffic(fs *flag.FlagSet) TrafficFlags {
	return TrafficFlags{
		TraceFile: fs.String("trace-file", "", "replay arrivals from this trace file instead of generating them:\n"+
			"NDJSON {\"t\": seconds, \"tenant\": \"...\"} lines or CSV t[,tenant[,class]]\n"+
			"rows (format inferred from the extension). -rate rescales the replay's\n"+
			"pacing; mutually exclusive with -tenants"),
		Tenants: fs.String("tenants", "", "multi-tenant Poisson mix: comma-separated name:rate[:admitRate[:burst]]\n"+
			"entries, e.g. \"search:60,feed:25:40:20\". admitRate caps the tenant's\n"+
			"admitted req/s via a deterministic token bucket of depth burst;\n"+
			"mutually exclusive with -trace-file"),
	}
}

// Spec translates the parsed traffic flags into a RunSpec.Traffic value.
// Nil (with a nil error) means neither flag was given: the run keeps the
// scenario's scripted traffic or the scalar Poisson path.
func (tf TrafficFlags) Spec() (*pcs.TrafficSpec, error) {
	trace := strings.TrimSpace(*tf.TraceFile)
	tenants := strings.TrimSpace(*tf.Tenants)
	switch {
	case trace == "" && tenants == "":
		return nil, nil
	case trace != "" && tenants != "":
		return nil, fmt.Errorf("-trace-file and -tenants are mutually exclusive: a run has one arrival source\n" +
			"(tenant mixes that include traces can be scripted as a scenario traffic.Spec)")
	case trace != "":
		return &pcs.TrafficSpec{Kind: "trace", Path: trace}, nil
	}
	spec := &pcs.TrafficSpec{Kind: "multi-tenant"}
	for _, entry := range strings.Split(tenants, ",") {
		t, err := parseTenant(strings.TrimSpace(entry))
		if err != nil {
			return nil, err
		}
		spec.Tenants = append(spec.Tenants, t)
	}
	return spec, nil
}

// SpecFlags binds the run-defining flags the cmd/ binaries share onto one
// pcs.RunSpec — the flag face of the canonical spec API. AddSpec registers
// the core selectors (-spec-file, -graph-file, -scenario, -policy, the
// traffic flags, -requests, -nodes, -search-components, -seed, -shards,
// -lanes); a binary then opts into the groups it carries — AddRun
// (-technique, -rate), AddReplication (-replications, -workers), AddTuning
// (-interval, -epsilon, -queue) — and calls Spec after parsing.
//
// Precedence is file-then-flags: -spec-file (when given) loads the base
// RunSpec and every flag the command line explicitly set overrides the
// matching field; without -spec-file the flags alone define the spec,
// defaults included, so a bare invocation still means the evaluation
// default run.
type SpecFlags struct {
	fs *flag.FlagSet

	specFile  *string
	graphFile *string
	scenario  *string
	policy    *string
	traffic   TrafficFlags
	requests  *int
	nodes     *int
	fanOut    *int
	seed      *int64
	shards    *int
	lanes     *int

	technique *string  // AddRun
	rate      *float64 // AddRun

	replications *int // AddReplication
	workers      *int // AddReplication

	interval *float64 // AddTuning
	epsilon  *float64 // AddTuning
	queue    *string  // AddTuning
}

// AddSpec registers the core run-defining flags on fs and returns the
// SpecFlags to extend and resolve.
func AddSpec(fs *flag.FlagSet) *SpecFlags {
	return &SpecFlags{
		fs: fs,
		specFile: fs.String("spec-file", "", "load the run from this pcs.RunSpec JSON file; flags set explicitly on\n"+
			"the command line override the file's fields (the same spec JSON drives\n"+
			"POST /v1/runs on pcs-serve — see docs/serve.md)"),
		graphFile: fs.String("graph-file", "", "deploy a custom service DAG loaded from this JSON graph spec instead of\n"+
			"a registered scenario (mutually exclusive with -scenario; the format is\n"+
			"the graph.Spec encoding, see docs/scenarios.md)"),
		scenario: AddScenario(fs),
		policy:   AddPolicy(fs),
		traffic:  AddTraffic(fs),
		requests: fs.Int("requests", 20000, "number of requests to simulate"),
		nodes:    fs.Int("nodes", 0, "cluster size (0 = scenario default)"),
		fanOut:   fs.Int("search-components", 0, "dominant-stage fan-out (0 = scenario default)"),
		seed:     fs.Int64("seed", 1, "random seed"),
		shards: fs.Int("shards", 1, "intra-run shard workers per simulation: profiling, matrix construction,\n"+
			"monitor sampling and demand ticks fan out across this many cores\n"+
			"(-1 = all cores); results are bit-identical at any value"),
		lanes: AddLanes(fs),
	}
}

// AddRun registers the single-run selectors -technique and -rate
// (pcs-sim, pcs-live; pcs-sweep's axes come from -techniques/-rates).
func (sf *SpecFlags) AddRun() *SpecFlags {
	sf.technique = AddTechnique(sf.fs)
	sf.rate = sf.fs.Float64("rate", 100, "request arrival rate (requests/second)")
	return sf
}

// AddReplication registers -replications and -workers.
func (sf *SpecFlags) AddReplication() *SpecFlags {
	sf.replications = sf.fs.Int("replications", 1, "independent replications to run and aggregate (mean±CI95)")
	sf.workers = sf.fs.Int("workers", 0, "parallel simulation workers (0 = all cores); never affects the results")
	return sf
}

// AddTuning registers the PCS tuning knobs -interval, -epsilon and -queue.
func (sf *SpecFlags) AddTuning() *SpecFlags {
	sf.interval = sf.fs.Float64("interval", 5, "PCS scheduling interval (seconds)")
	sf.epsilon = sf.fs.Float64("epsilon", 0.000005, "PCS migration threshold ε (seconds)")
	sf.queue = sf.fs.String("queue", "mg1", "PCS queue model: mg1, mm1 or none")
	return sf
}

// Spec resolves the parsed flags into a validated RunSpec: the -spec-file
// base (if any) with explicit flags layered on top. An explicit -scenario
// clears a file's graph deployment and vice versa, so overriding the
// deployment never trips the one-service check by accident.
func (sf *SpecFlags) Spec() (pcs.RunSpec, error) {
	var spec pcs.RunSpec
	fromFile := strings.TrimSpace(*sf.specFile) != ""
	if fromFile {
		var err error
		if spec, err = pcs.LoadRunSpec(strings.TrimSpace(*sf.specFile)); err != nil {
			return pcs.RunSpec{}, err
		}
	}
	set := map[string]bool{}
	sf.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	use := func(name string) bool { return !fromFile || set[name] }

	if use("scenario") {
		spec.Scenario = *sf.scenario
	}
	if use("graph-file") {
		spec.GraphFile = *sf.graphFile
	}
	if fromFile && set["scenario"] && !set["graph-file"] {
		spec.Graph, spec.GraphFile = nil, ""
	}
	if fromFile && set["graph-file"] && !set["scenario"] {
		spec.Scenario, spec.Graph = "", nil
	}
	if use("policy") {
		spec.Policy = *sf.policy
	}
	if use("requests") {
		spec.Requests = *sf.requests
	}
	if use("nodes") {
		spec.Nodes = *sf.nodes
	}
	if use("search-components") {
		spec.SearchComponents = *sf.fanOut
	}
	if use("seed") {
		spec.Seed = *sf.seed
	}
	if use("shards") {
		spec.Shards = *sf.shards
	}
	if use("lanes") {
		spec.Lanes = *sf.lanes
	}
	if sf.technique != nil && use("technique") {
		if err := spec.Technique.UnmarshalText([]byte(*sf.technique)); err != nil {
			return pcs.RunSpec{}, err
		}
	}
	if sf.rate != nil && use("rate") {
		spec.ArrivalRate = *sf.rate
	}
	if sf.replications != nil && use("replications") {
		spec.Replications = *sf.replications
	}
	if sf.workers != nil && use("workers") {
		spec.Workers = *sf.workers
	}
	if sf.interval != nil && use("interval") {
		spec.SchedulingInterval = *sf.interval
	}
	if sf.epsilon != nil && use("epsilon") {
		spec.EpsilonSeconds = *sf.epsilon
	}
	if sf.queue != nil && use("queue") {
		spec.QueueModel = *sf.queue
	}

	tspec, err := sf.traffic.Spec()
	if err != nil {
		return pcs.RunSpec{}, err
	}
	if tspec != nil {
		spec.Traffic = tspec
	}
	if err := spec.Validate(); err != nil {
		return pcs.RunSpec{}, err
	}
	return spec, nil
}

// parseTenant parses one -tenants entry: name:rate[:admitRate[:burst]].
func parseTenant(entry string) (pcs.TenantTraffic, error) {
	fail := func(msg string) (pcs.TenantTraffic, error) {
		return pcs.TenantTraffic{}, fmt.Errorf(
			"bad -tenants entry %q: %s (want name:rate[:admitRate[:burst]])", entry, msg)
	}
	parts := strings.Split(entry, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return fail("wrong number of fields")
	}
	if parts[0] == "" {
		return fail("empty tenant name")
	}
	t := pcs.TenantTraffic{Name: parts[0], Source: pcs.TrafficSpec{Kind: "poisson"}}
	rate, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || rate <= 0 {
		return fail("rate must be a positive number")
	}
	t.Source.Rate = rate
	if len(parts) >= 3 {
		admit, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || admit < 0 {
			return fail("admitRate must be a non-negative number")
		}
		t.AdmitRate = admit
	}
	if len(parts) == 4 {
		burst, err := strconv.Atoi(parts[3])
		if err != nil || burst < 0 {
			return fail("burst must be a non-negative integer")
		}
		t.Burst = burst
	}
	return t, nil
}
