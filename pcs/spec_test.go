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
// marshal → strict parse unchanged, and the zero spec encodes to "{}".
func TestRunSpecRoundTrip(t *testing.T) {
	spec := RunSpec{
		Technique:    "PCS",
		Scenario:     "ecommerce",
		Policy:       "pid-throttle",
		Seed:         42,
		Rate:         250,
		Requests:     1234,
		Shards:       2,
		Lanes:        3,
		Replications: 4,
		Traffic:      &TrafficSpec{Kind: "poisson", Rate: 250},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
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
}

// TestParseRunSpecStrict pins the decode edges: unknown fields and
// trailing documents are errors, not silent defaults.
func TestParseRunSpecStrict(t *testing.T) {
	if _, err := ParseRunSpec([]byte(`{"tecnique": "PCS"}`)); err == nil {
		t.Fatal("typo'd field accepted")
	}
	if _, err := ParseRunSpec([]byte(`{"seed": 1} {"seed": 2}`)); err == nil {
		t.Fatal("trailing document accepted")
	}
	if _, err := ParseRunSpec([]byte(`{"seed": 1}`)); err != nil {
		t.Fatal(err)
	}
}

// TestRunSpecValidate walks the rejection surface.
func TestRunSpecValidate(t *testing.T) {
	bad := map[string]RunSpec{
		"unknown technique": {Technique: "warp"},
		"unknown scenario":  {Scenario: "missing"},
		"unknown policy":    {Policy: "missing"},
		"scenario and graph file": {
			Scenario: "ecommerce", GraphFile: "g.json"},
		"negative requests": {Requests: -1},
		"negative rate":     {Rate: -1},
		"invalid graph":     {Graph: &GraphSpec{Name: "empty"}},
	}
	for name, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := []RunSpec{
		{},
		{Technique: "red-3", Scenario: "ecommerce", Policy: "none"},
		{Policy: ""},
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

// TestRunSpecOptionsEquivalence pins the one decode path: a spec resolves
// to exactly the Options a CLI used to hand-assemble.
func TestRunSpecOptionsEquivalence(t *testing.T) {
	spec := RunSpec{
		Technique:          "RI-90",
		Scenario:           "ecommerce",
		Policy:             "none",
		Seed:               9,
		Rate:               120,
		Requests:           5000,
		Nodes:              12,
		SearchComponents:   40,
		Shards:             2,
		Lanes:              1,
		SchedulingInterval: 5,
		EpsilonSeconds:     0.000005,
		QueueModel:         "mg1",
	}
	got, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		Technique:          RI90,
		Scenario:           "ecommerce",
		Policy:             "none",
		Seed:               9,
		ArrivalRate:        120,
		Requests:           5000,
		Nodes:              12,
		SearchComponents:   40,
		Shards:             2,
		Lanes:              1,
		SchedulingInterval: 5,
		EpsilonSeconds:     0.000005,
		QueueModel:         "mg1",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Options mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunSpecGraphFile pins the -graph-file path: a JSON graph loaded by
// reference runs identically to the same graph inline, and a missing file
// fails at Options time, not Validate time.
func TestRunSpecGraphFile(t *testing.T) {
	path := writeSpecFile(t, "mini.json", specGraphJSON)
	g, err := LoadGraphSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "mini" || len(g.Nodes) != 2 || g.Nodes[0].Calls[0].To != "back" {
		t.Fatalf("loaded graph %+v", g)
	}

	byFile := RunSpec{GraphFile: path, Requests: 500, Rate: 100, Seed: 3}
	inline := RunSpec{Graph: g, Requests: 500, Rate: 100, Seed: 3}
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
	spec := RunSpec{Technique: "Basic", Requests: 500, Rate: 100, Seed: 11, Replications: 3}
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
		Techniques: []string{"Basic", "PCS"},
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
		tech     string
		rate     float64
		requests int
	}{
		{"Basic", 10, 900}, // floored to 90 s × 10 req/s
		{"PCS", 10, 900},
		{"Basic", 200, 18000},
		{"PCS", 200, 18000},
	}
	for i, want := range wantOrder {
		cell := cells[i]
		if cell.Technique != want.tech || cell.Rate != want.rate || cell.Requests != want.requests {
			t.Fatalf("cell %d = %s/λ=%g/%d requests, want %s/λ=%g/%d",
				i, cell.Technique, cell.Rate, cell.Requests, want.tech, want.rate, want.requests)
		}
		tech, err := ParseTechnique(want.tech)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(1) ^ int64(want.rate)<<16 ^ int64(tech)<<8; cell.Seed != want {
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

	if _, err := (SweepSpec{Base: RunSpec{}, Techniques: []string{"warp"}}).Cells(); err == nil {
		t.Fatal("unknown technique axis accepted")
	}
	if _, err := ParseSweepSpec([]byte(`{"base": {}, "surprise": 1}`)); err == nil {
		t.Fatal("unknown sweep field accepted")
	}
}

// TestLoadRunSpec pins the -spec-file path: strict decode plus validation.
func TestLoadRunSpec(t *testing.T) {
	path := writeSpecFile(t, "run.json", `{"technique": "PCS", "seed": 5, "rate": 50}`)
	spec, err := LoadRunSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Technique != "PCS" || spec.Seed != 5 || spec.Rate != 50 {
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
