package pcs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// specGraphJSON is a minimal two-node DAG in the lowerCamel encoding a
// client would POST (graph.Spec decodes case-insensitively).
const specGraphJSON = `{
  "name": "mini",
  "nodes": [
    {"name": "front", "components": 4, "baseServiceTime": 0.001, "calls": [{"to": "back"}]},
    {"name": "back", "components": 8, "baseServiceTime": 0.002}
  ]
}`

func writeSpecFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunSpecRoundTrip pins the wire format: a populated spec survives
// marshal → strict parse unchanged, the technique travels as its canonical
// name whatever spelling it arrived in (Basic, the zero value, omitted),
// and the zero spec encodes to "{}".
func TestRunSpecRoundTrip(t *testing.T) {
	spec := RunSpec{
		Technique:    PCS,
		Scenario:     "ecommerce",
		Policy:       "pid-throttle",
		Seed:         42,
		ArrivalRate:  250,
		Requests:     1234,
		Shards:       2,
		Lanes:        3,
		Replications: 4,
		Traffic: &TrafficSpec{Kind: "multi-tenant", Tenants: []TenantTraffic{
			{Name: "search", Source: TrafficSpec{Kind: "poisson", Rate: 250}, AdmitRate: 40, Burst: 20},
		}},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"technique":"PCS"`, `"rate":250`, `"admitRate":40`} {
		if !strings.Contains(string(data), field) {
			t.Fatalf("encoding %s lacks %s", data, field)
		}
	}
	got, err := ParseRunSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", got, spec)
	}
	if data, err = json.Marshal(RunSpec{}); err != nil || string(data) != "{}" {
		t.Fatalf("zero spec encodes to %s, %v (want {})", data, err)
	}

	for in, want := range map[string]string{
		`{"technique": "red-3"}`: `{"technique":"RED-3"}`,
		`{"technique": "RI90"}`:  `{"technique":"RI-90"}`,
		`{"technique": "pcs"}`:   `{"technique":"PCS"}`,
		`{"technique": "Basic"}`: `{}`,
		`{"technique": ""}`:      `{}`,
	} {
		s, err := ParseRunSpec([]byte(in))
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if out, err := json.Marshal(s); err != nil || string(out) != want {
			t.Fatalf("%s re-encodes to %s, %v (want %s)", in, out, err, want)
		}
	}
	// Only Go code can build a technique outside the six; it does not
	// encode.
	if _, err := json.Marshal(RunSpec{Technique: Technique(42)}); err == nil {
		t.Fatal("technique 42 encoded")
	}
}

// TestParseRunSpecStrict pins the decode edges: unknown fields, trailing
// documents, unknown technique names and numeric techniques are errors at
// parse, not silent defaults.
func TestParseRunSpecStrict(t *testing.T) {
	for _, bad := range []string{
		`{"tecnique": "PCS"}`,
		`{"seed": 1} {"seed": 2}`,
		`{"technique": "warp"}`,
		`{"technique": 3}`,
	} {
		if _, err := ParseRunSpec([]byte(bad)); err == nil {
			t.Fatalf("%s accepted", bad)
		}
	}
	if _, err := ParseRunSpec([]byte(`{"seed": 1}`)); err != nil {
		t.Fatal(err)
	}
}

// TestRunSpecValidate walks the rejection surface.
func TestRunSpecValidate(t *testing.T) {
	bad := map[string]RunSpec{
		"unknown technique": {Technique: Technique(42)},
		"unknown scenario":  {Scenario: "missing"},
		"unknown policy":    {Policy: "missing"},
		"scenario and graph file": {
			Scenario: "ecommerce", GraphFile: "g.json"},
		"negative requests": {Requests: -1},
		"negative rate":     {ArrivalRate: -1},
		"invalid graph":     {Graph: &GraphSpec{Name: "empty"}},
		"bogus traffic":     {Traffic: &TrafficSpec{Kind: "bogus"}},
		"pathless trace":    {Traffic: &TrafficSpec{Kind: "trace"}},
	}
	for name, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := []RunSpec{
		{},
		{Technique: RED3, Scenario: "ecommerce", Policy: "none"},
		{Policy: ""},
		// Validate never opens the trace: a missing file fails at run time.
		{Traffic: &TrafficSpec{Kind: "trace", Path: "missing.ndjson"}},
	}
	for _, spec := range ok {
		if err := spec.Validate(); err != nil {
			t.Errorf("%+v: rejected: %v", spec, err)
		}
	}
}

// TestRunSpecValidateNamesFirstBadCount pins the count check's order: a
// spec with every count negative names requests, every time, so identical
// POSTs to the daemon get identical 400 bodies.
func TestRunSpecValidateNamesFirstBadCount(t *testing.T) {
	spec := RunSpec{Requests: -1, Nodes: -2, SearchComponents: -3, Replications: -4, Workers: -5}
	const want = "pcs: run spec requests must be non-negative, got -1"
	for i := 0; i < 100; i++ {
		err := spec.Validate()
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: error %v, want %q", i, err, want)
		}
	}
}

// TestRunSpecOptionsEquivalence pins Options on a spec that names no file:
// it returns the spec itself, every knob intact — so resolving a run can
// never silently drop one — and rejects what Validate rejects.
func TestRunSpecOptionsEquivalence(t *testing.T) {
	spec := RunSpec{
		Technique: RI90, Scenario: "ecommerce", Policy: "none", PolicyInterval: 2,
		Seed: 9, ArrivalRate: 120, Requests: 5000, Nodes: 12, SearchComponents: 40,
		Traffic: &TrafficSpec{Kind: "poisson", Rate: 120},
		Shards:  2, Lanes: 1, Replications: 3, Workers: 2,
		WarmupFraction: 0.2, DrainSeconds: 4, CancelDelaySeconds: 0.004,
		BatchConcurrency: 1.5, MinInputMB: 2, MaxInputMB: 100, TwoPhaseJobs: -1,
		SchedulingInterval: 5, EpsilonSeconds: 0.000005, QueueModel: "mg1",
		MaxMigrationsPerInterval: 10, RegressionDegree: 2, TrainingMixes: 40,
		ProfilingProbes: 50, MonitorNoiseSigma: 0.03,
	}
	// Every knob is set, so a field added later without care shows here.
	v := reflect.ValueOf(spec)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name != "Graph" && name != "GraphFile" && v.Field(i).IsZero() {
			t.Fatalf("test spec leaves %s unset", name)
		}
	}
	got, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("Options changed the spec:\n got %+v\nwant %+v", got, spec)
	}
	spec.Policy = "missing"
	if _, err := spec.Options(); err == nil {
		t.Fatal("invalid spec resolved")
	}
}

// TestRunSpecGraphFile pins the -graph-file path: Options inlines the
// loaded graph and clears GraphFile, a graph loaded by reference runs
// identically to the same graph inline (through Report and through
// NewSimulation), and a missing file fails at Options time, not Validate
// time.
func TestRunSpecGraphFile(t *testing.T) {
	path := writeSpecFile(t, "mini.json", specGraphJSON)
	g, err := LoadGraphSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "mini" || len(g.Nodes) != 2 || g.Nodes[0].Calls[0].To != "back" {
		t.Fatalf("loaded graph %+v", g)
	}

	byFile := RunSpec{GraphFile: path, Requests: 500, ArrivalRate: 100, Seed: 3}
	inline := RunSpec{Graph: g, Requests: 500, ArrivalRate: 100, Seed: 3}
	resolved, err := byFile.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resolved, inline) {
		t.Fatalf("Options did not inline the graph file:\n got %+v\nwant %+v", resolved, inline)
	}
	sim, err := NewSimulation(byFile)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Options().GraphFile != "" || sim.Options().Graph == nil {
		t.Fatalf("NewSimulation kept the graph file: %+v", sim.Options())
	}
	direct, err := Run(inline)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Finish(); !reflect.DeepEqual(got, direct) {
		t.Fatal("NewSimulation over a graph file diverged from the inline graph")
	}
	resFile, err := byFile.Report()
	if err != nil {
		t.Fatal(err)
	}
	resInline, err := inline.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resFile, resInline) {
		t.Fatal("graphFile and inline graph reports diverged")
	}

	missing := RunSpec{GraphFile: filepath.Join(t.TempDir(), "nope.json")}
	if err := missing.Validate(); err != nil {
		t.Fatalf("Validate touched the filesystem: %v", err)
	}
	if _, err := missing.Options(); err == nil {
		t.Fatal("missing graph file resolved")
	}
}

// TestRunSpecReportCanonical pins the canonical report: Report equals the
// normalized RunCells aggregate and the MergeStream fold of the frames
// RunCells emits at the same spec — byte-identical JSON in all three.
func TestRunSpecReportCanonical(t *testing.T) {
	spec := RunSpec{Technique: Basic, Requests: 500, ArrivalRate: 100, Seed: 11, Replications: 3}
	report, err := spec.Report()
	if err != nil {
		t.Fatal(err)
	}
	var ndjson bytes.Buffer
	aggs, err := RunCells([]RunSpec{spec}, 0, StreamTo(&ndjson))
	if err != nil {
		t.Fatal(err)
	}
	direct := aggs[0]
	direct.Workers = 0
	merged, err := MergeStream(bytes.NewReader(ndjson.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	enc := func(a Aggregate) string {
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if enc(report) != enc(direct) {
		t.Fatal("Report diverged from normalized RunCells")
	}
	if enc(report) != enc(merged) {
		t.Fatal("Report diverged from MergeStream over RunCells' frames")
	}
	if report.Workers != 0 || report.Runs != nil {
		t.Fatalf("Report not in normal form: workers %d, %d runs", report.Workers, len(report.Runs))
	}
}

// TestSweepSpecCells pins the canonical expansion: rate-major order, the
// historical seed derivation, the ≥90-virtual-second requests floor, and
// policy-independent seeds for paired comparison.
func TestSweepSpecCells(t *testing.T) {
	sweep := SweepSpec{
		Base:       RunSpec{Seed: 1, Requests: 100},
		Techniques: []Technique{Basic, PCS},
		Rates:      []float64{10, 200},
	}
	cells, err := sweep.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded to %d cells, want 4", len(cells))
	}
	// Rate-major order with the Fig. 6 seed derivation.
	wantOrder := []struct {
		tech     Technique
		rate     float64
		requests int
	}{
		{Basic, 10, 900}, // floored to 90 s × 10 req/s
		{PCS, 10, 900},
		{Basic, 200, 18000},
		{PCS, 200, 18000},
	}
	for i, want := range wantOrder {
		cell := cells[i]
		if cell.Technique != want.tech || cell.ArrivalRate != want.rate || cell.Requests != want.requests {
			t.Fatalf("cell %d = %s/λ=%g/%d requests, want %s/λ=%g/%d",
				i, cell.Technique, cell.ArrivalRate, cell.Requests, want.tech, want.rate, want.requests)
		}
		if want := int64(1) ^ int64(want.rate)<<16 ^ int64(want.tech)<<8; cell.Seed != want {
			t.Fatalf("cell %d seed %d, want %d", i, cell.Seed, want)
		}
	}

	// The policy axis multiplies cells without perturbing their seeds:
	// a policy-on cell faces its open-loop twin's exact workload.
	sweep.Policies = []string{"none", "threshold-autoscale"}
	paired, err := sweep.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(paired) != 8 {
		t.Fatalf("policy axis expanded to %d cells, want 8", len(paired))
	}
	for i := 0; i < len(paired); i += 2 {
		open, closed := paired[i], paired[i+1]
		if open.Policy != "none" || closed.Policy != "threshold-autoscale" {
			t.Fatalf("cells %d/%d policies %q/%q", i, i+1, open.Policy, closed.Policy)
		}
		if open.Seed != closed.Seed {
			t.Fatalf("paired cells %d/%d seeds %d != %d", i, i+1, open.Seed, closed.Seed)
		}
	}

	if _, err := (SweepSpec{Base: RunSpec{}, Techniques: []Technique{Technique(42)}}).Cells(); err == nil {
		t.Fatal("unknown technique axis accepted")
	}
	for _, bad := range []string{
		`{"base": {}, "surprise": 1}`,
		`{"base": {}, "techniques": ["warp"]}`,
		`{"base": {}, "techniques": [3]}`,
	} {
		if _, err := ParseSweepSpec([]byte(bad)); err == nil {
			t.Fatalf("%s accepted", bad)
		}
	}
	parsed, err := ParseSweepSpec([]byte(`{"base": {"technique": "pcs"}, "techniques": ["red-3", ""]}`))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Technique{RED3, Basic}; parsed.Base.Technique != PCS || !reflect.DeepEqual(parsed.Techniques, want) {
		t.Fatalf("parsed sweep %+v", parsed)
	}
}

// TestLoadRunSpec pins the -spec-file path: strict decode plus validation.
func TestLoadRunSpec(t *testing.T) {
	path := writeSpecFile(t, "run.json", `{"technique": "PCS", "seed": 5, "rate": 50}`)
	spec, err := LoadRunSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Technique != PCS || spec.Seed != 5 || spec.ArrivalRate != 50 {
		t.Fatalf("loaded %+v", spec)
	}
	if _, err := LoadRunSpec(writeSpecFile(t, "bad.json", `{"technique": "warp"}`)); err == nil {
		t.Fatal("invalid spec file accepted")
	}
}

// TestInfos pins the introspection listings the daemon serves.
func TestInfos(t *testing.T) {
	scenarios := ScenarioInfos()
	if len(scenarios) == 0 {
		t.Fatal("no scenarios")
	}
	for _, info := range scenarios {
		if info.Name == "" || info.Description == "" {
			t.Fatalf("undescribed scenario %+v", info)
		}
	}
	policies := PolicyInfos()
	if len(policies) == 0 {
		t.Fatal("no policies")
	}
	techniques := TechniqueInfos()
	if len(techniques) != 6 {
		t.Fatalf("%d techniques, want 6", len(techniques))
	}
	for _, info := range techniques {
		if info.Description == "" {
			t.Fatalf("undescribed technique %q", info.Name)
		}
	}
	if techniques[0].Name != "Basic" || techniques[5].Name != "PCS" {
		t.Fatalf("technique order %v", techniques)
	}
	data, err := json.Marshal(techniques[0])
	if err != nil || !strings.Contains(string(data), `"name":"Basic"`) {
		t.Fatalf("Info encoding %s, %v", data, err)
	}
}
