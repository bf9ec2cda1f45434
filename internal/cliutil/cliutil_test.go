package cliutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/pcs"
)

func newSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestSelectorsRegister(t *testing.T) {
	fs := newSet()
	tech := AddTechnique(fs)
	sc := AddScenario(fs)
	pol := AddPolicy(fs)
	if err := fs.Parse([]string{"-technique", "Basic", "-scenario", "ecommerce", "-policy", "none"}); err != nil {
		t.Fatal(err)
	}
	if *tech != "Basic" || *sc != "ecommerce" || *pol != "none" {
		t.Fatalf("parsed %q/%q/%q", *tech, *sc, *pol)
	}
	// The scenario usage text must list the registry so -h stays in sync
	// with what Register saw.
	if u := fs.Lookup("scenario").Usage; !strings.Contains(u, "tenant-storm") {
		t.Fatalf("scenario usage does not list the registry: %q", u)
	}
}

func TestParseTechniques(t *testing.T) {
	got, err := ParseTechniques(" Basic, PCS ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != pcs.Basic || got[1] != pcs.PCS {
		t.Fatalf("ParseTechniques = %v", got)
	}
	if got, err := ParseTechniques(""); err != nil || got != nil {
		t.Fatalf("empty list parsed to %v, %v", got, err)
	}
	if _, err := ParseTechniques("Basic,warp"); err == nil {
		t.Fatal("unknown technique accepted")
	}
}

func TestParseRates(t *testing.T) {
	got, err := ParseRates("10, 20,50")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 50 {
		t.Fatalf("ParseRates = %v", got)
	}
	if _, err := ParseRates("10,fast"); err == nil {
		t.Fatal("non-numeric rate accepted")
	}
}

func TestParseRemotes(t *testing.T) {
	got, err := ParseRemotes(" http://a:8344, https://b/ ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "http://a:8344" || got[1] != "https://b" {
		t.Fatalf("ParseRemotes = %v", got)
	}
	if got, err := ParseRemotes("  "); err != nil || got != nil {
		t.Fatalf("empty remote list = %v, %v", got, err)
	}
	for _, bad := range []string{"a:8344", "http://a,,http://b", "ftp://x"} {
		if _, err := ParseRemotes(bad); err == nil {
			t.Fatalf("remote list %q accepted", bad)
		}
	}
}

func trafficFlags(t *testing.T, args ...string) TrafficFlags {
	t.Helper()
	fs := newSet()
	tf := AddTraffic(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return tf
}

func TestTrafficFlagsSpec(t *testing.T) {
	// Neither flag: nil spec, keep the scenario/scalar path.
	spec, err := trafficFlags(t).Spec()
	if err != nil || spec != nil {
		t.Fatalf("no flags gave %+v, %v", spec, err)
	}

	spec, err = trafficFlags(t, "-trace-file", "arrivals.ndjson").Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != "trace" || spec.Path != "arrivals.ndjson" {
		t.Fatalf("-trace-file spec %+v", spec)
	}

	spec, err = trafficFlags(t, "-tenants", "search:60,feed:25:40:20,crawler:5:30").Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != "multi-tenant" || len(spec.Tenants) != 3 {
		t.Fatalf("-tenants spec %+v", spec)
	}
	feed := spec.Tenants[1]
	if feed.Name != "feed" || feed.Source.Rate != 25 || feed.AdmitRate != 40 || feed.Burst != 20 {
		t.Fatalf("feed tenant %+v", feed)
	}
	if c := spec.Tenants[2]; c.AdmitRate != 30 || c.Burst != 0 {
		t.Fatalf("crawler tenant %+v", c)
	}
	if _, err := trafficFlags(t, "-trace-file", "a.ndjson", "-tenants", "x:1").Spec(); err == nil {
		t.Fatal("-trace-file with -tenants accepted")
	}
	for _, bad := range []string{"search", "search:-2", ":5", "a:1:2:3:4", "a:1:x", "a:1:2:-1"} {
		if _, err := trafficFlags(t, "-tenants", bad).Spec(); err == nil {
			t.Fatalf("bad -tenants entry %q accepted", bad)
		}
	}
}

func specFlags(t *testing.T, args ...string) pcs.RunSpec {
	t.Helper()
	fs := newSet()
	sf := AddSpec(fs).AddRun().AddReplication().AddTuning()
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	spec, err := sf.Spec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpecFlagsDefaults pins the flags-only path: a bare invocation still
// means the evaluation default run.
func TestSpecFlagsDefaults(t *testing.T) {
	spec := specFlags(t)
	if spec.Technique != pcs.PCS || spec.Requests != 20000 || spec.Seed != 1 ||
		spec.ArrivalRate != 100 || spec.Replications != 1 || spec.Shards != 1 ||
		spec.SchedulingInterval != 5 || spec.QueueModel != "mg1" {
		t.Fatalf("default spec %+v", spec)
	}
	spec = specFlags(t, "-technique", "Basic", "-rate", "250", "-seed", "9")
	if spec.Technique != pcs.Basic || spec.ArrivalRate != 250 || spec.Seed != 9 {
		t.Fatalf("flag spec %+v", spec)
	}
	// -technique takes every ParseTechnique spelling; empty is Basic.
	for name, want := range map[string]pcs.Technique{"red-3": pcs.RED3, "RI90": pcs.RI90, "": pcs.Basic} {
		if got := specFlags(t, "-technique", name).Technique; got != want {
			t.Fatalf("-technique %q = %s, want %s", name, got, want)
		}
	}
	fs := newSet()
	sf := AddSpec(fs).AddRun()
	if err := fs.Parse([]string{"-technique", "warp"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Spec(); err == nil {
		t.Fatal("-technique warp accepted")
	}
}

// TestSpecFlagsFilePrecedence pins file-then-flags: the spec file is the
// base, explicitly-set flags override it, untouched defaults do not.
func TestSpecFlagsFilePrecedence(t *testing.T) {
	path := writeFile(t, "run.json",
		`{"technique": "RED-3", "scenario": "ecommerce", "seed": 77, "rate": 40, "requests": 900}`)

	spec := specFlags(t, "-spec-file", path)
	if spec.Technique != pcs.RED3 || spec.Seed != 77 || spec.ArrivalRate != 40 || spec.Requests != 900 {
		t.Fatalf("file spec %+v", spec)
	}
	// Flag defaults (technique PCS, requests 20000...) must NOT clobber
	// the file's fields when the flag was not set explicitly.
	if spec.Scenario != "ecommerce" {
		t.Fatalf("scenario lost: %+v", spec)
	}

	spec = specFlags(t, "-spec-file", path, "-seed", "5", "-technique", "PCS")
	if spec.Seed != 5 || spec.Technique != pcs.PCS {
		t.Fatalf("explicit flags did not override the file: %+v", spec)
	}
	if spec.ArrivalRate != 40 || spec.Requests != 900 {
		t.Fatalf("untouched fields changed: %+v", spec)
	}
}

// TestSpecFlagsDeploymentOverride pins the clearing rule: an explicit
// -scenario clears a file's graph deployment and vice versa, so overriding
// the deployment never trips the one-service check.
func TestSpecFlagsDeploymentOverride(t *testing.T) {
	graphPath := writeFile(t, "g.json", `{
	  "name": "mini",
	  "nodes": [{"name": "solo", "components": 2, "baseServiceTime": 0.001}]
	}`)
	withGraph := writeFile(t, "graph-run.json",
		`{"graphFile": `+strconv.Quote(graphPath)+`, "seed": 3}`)
	spec := specFlags(t, "-spec-file", withGraph, "-scenario", "ecommerce")
	if spec.Scenario != "ecommerce" || spec.GraphFile != "" || spec.Graph != nil {
		t.Fatalf("-scenario did not clear the file's graph: %+v", spec)
	}

	withScenario := writeFile(t, "scenario-run.json", `{"scenario": "ecommerce", "seed": 3}`)
	spec = specFlags(t, "-spec-file", withScenario, "-graph-file", graphPath)
	if spec.Scenario != "" || spec.GraphFile != graphPath {
		t.Fatalf("-graph-file did not clear the file's scenario: %+v", spec)
	}

	// Both set explicitly is still the one-service conflict.
	fs := newSet()
	sf := AddSpec(fs)
	if err := fs.Parse([]string{"-scenario", "ecommerce", "-graph-file", graphPath}); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Spec(); err == nil {
		t.Fatal("explicit -scenario with -graph-file accepted")
	}
}

// TestSpecFlagsTrafficOverride pins that traffic flags replace a file's
// traffic spec, and that absent flags keep it.
func TestSpecFlagsTrafficOverride(t *testing.T) {
	path := writeFile(t, "traffic-run.json",
		`{"traffic": {"kind": "poisson", "rate": 10}, "seed": 2}`)
	spec := specFlags(t, "-spec-file", path)
	if spec.Traffic == nil || spec.Traffic.Kind != "poisson" || spec.Traffic.Rate != 10 {
		t.Fatalf("file traffic lost: %+v", spec.Traffic)
	}
	spec = specFlags(t, "-spec-file", path, "-tenants", "search:60")
	if spec.Traffic == nil || spec.Traffic.Kind != "multi-tenant" || len(spec.Traffic.Tenants) != 1 {
		t.Fatalf("-tenants did not override the file's traffic: %+v", spec.Traffic)
	}
}
