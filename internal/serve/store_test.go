package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/pcs"
)

// storeSpec is the run the recovery tests stream: small enough to be fast,
// three replications so the frontier has interior resume points.
var storeSpec = pcs.RunSpec{Technique: pcs.Basic, Requests: 300, ArrivalRate: 100, Seed: 7, Replications: 3}

// streamFor renders the spec's full local NDJSON stream — the reference
// bytes every recovery path must reproduce.
func streamFor(t *testing.T, spec pcs.RunSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := pcs.RunCells([]pcs.RunSpec{spec}, 0, pcs.StreamTo(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lines splits a stream into its whole NDJSON lines (without newlines).
func streamLines(data []byte) []string {
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// TestRecoverFrames walks the corruption shapes a crash can leave in the
// frames file. For every shape, recoverFrames must keep exactly the
// longest intact in-order prefix, report it as a byte prefix of the input,
// and name the damage in its diagnostic.
func TestRecoverFrames(t *testing.T) {
	full := streamFor(t, storeSpec)
	lns := streamLines(full)
	if len(lns) != 3 {
		t.Fatalf("reference stream has %d lines, want 3", len(lns))
	}
	join := func(ls ...string) []byte {
		if len(ls) == 0 {
			return nil
		}
		return []byte(strings.Join(ls, "\n") + "\n")
	}

	cases := []struct {
		name     string
		data     []byte
		complete int
		diag     string // substring the diagnostic must carry; "" = clean
	}{
		{"empty file", nil, 0, ""},
		{"intact stream", full, 3, ""},
		{"torn last line", full[:len(full)-4], 2, "torn frame"},
		{"no newline at all", []byte(`{"rep":0`), 0, "torn frame"},
		{"partial json", join(lns[0], `{"rep": 1, "seed":`), 1, "does not parse"},
		{"garbage line", join(lns[0], lns[1], "not json at all"), 2, "does not parse"},
		{"duplicate frame", join(lns[0], lns[0], lns[1]), 1, "carries replication 0"},
		{"gap", join(lns[0], lns[2]), 1, "carries replication 2"},
		{"trailing data on line", join(lns[0], lns[1]+` {"x":1}`), 1, "trailing data"},
		{"missing report tail", join(lns[0]), 1, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			intact, complete, diag := recoverFrames(c.data)
			if complete != c.complete {
				t.Fatalf("complete = %d, want %d (diag %q)", complete, c.complete, diag)
			}
			if !bytes.HasPrefix(c.data, intact) {
				t.Fatalf("intact is not a byte prefix of the input")
			}
			if c.diag == "" && diag != "" {
				t.Fatalf("unexpected diagnostic %q", diag)
			}
			if c.diag != "" && !strings.Contains(diag, c.diag) {
				t.Fatalf("diagnostic %q does not mention %q", diag, c.diag)
			}
			// The intact prefix must be exactly the first `complete` reference
			// lines and re-recover cleanly (idempotence).
			if want := join(lns[:complete]...); !bytes.Equal(intact, want) && c.complete > 0 {
				// Cases built from doctored lines (duplicate/gap/trailing) still
				// start with true reference lines, so this holds for all cases.
				t.Fatalf("intact prefix:\n got %q\nwant %q", intact, want)
			}
			again, n2, d2 := recoverFrames(intact)
			if !bytes.Equal(again, intact) || n2 != complete || d2 != "" {
				t.Fatalf("recovery not idempotent: %d %q", n2, d2)
			}
			// The satellite contract: the recovered report is MergeStream over
			// the intact prefix — and that fold must succeed whenever any
			// frames survived.
			if complete > 0 {
				if _, err := pcs.MergeStream(bytes.NewReader(intact)); err != nil {
					t.Fatalf("MergeStream over intact prefix: %v", err)
				}
			}
		})
	}
}

// newDurableServer builds a durable daemon over dir and serves it.
func newDurableServer(t *testing.T, capacity int, dir string) *httptest.Server {
	t.Helper()
	s, err := NewWithStore(capacity, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestRestartRecoversDoneRun is the crash-recovery identity: run to done,
// "crash" (drop the server), restart over the same state dir, and the
// recovered run is immediately queryable with a byte-identical report and
// a byte-identical SSE replay — recomputed from the stored frames, not
// re-run.
func TestRestartRecoversDoneRun(t *testing.T) {
	checkGoroutines(t)
	dir := t.TempDir()

	ts := newDurableServer(t, 2, dir)
	_, body := postJSON(t, ts.URL+"/v1/runs", smallRun)
	var created RunStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	var done RunStatus
	getJSON(t, ts.URL+"/v1/runs/"+created.ID+"?wait=1", &done)
	if done.State != StateDone {
		t.Fatalf("pre-crash run %+v", done)
	}
	preReport, _ := json.Marshal(done.Report)
	preStream, _ := readSSE(t, ts.URL+"/v1/runs/"+created.ID+"/stream")
	ts.Close()

	ts2 := newDurableServer(t, 2, dir)
	var recovered RunStatus
	getJSON(t, ts2.URL+"/v1/runs/"+created.ID, &recovered)
	if recovered.State != StateDone || recovered.Error != "" {
		t.Fatalf("recovered run %+v", recovered)
	}
	postReport, _ := json.Marshal(recovered.Report)
	if !bytes.Equal(preReport, postReport) {
		t.Fatalf("recovered report diverged:\n got %s\nwant %s", postReport, preReport)
	}
	postStream, end := readSSE(t, ts2.URL+"/v1/runs/"+created.ID+"/stream")
	if !bytes.Equal(preStream, postStream) {
		t.Fatal("recovered SSE replay diverged from the pre-crash stream")
	}
	if !strings.Contains(end, `"state":"done"`) {
		t.Fatalf("recovered end event %s", end)
	}
	// Fresh ids keep counting past the recovered ones.
	_, body = postJSON(t, ts2.URL+"/v1/runs", smallRun)
	var fresh RunStatus
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.ID == created.ID {
		t.Fatalf("restart reissued id %s", fresh.ID)
	}
}

// TestRestartRecoversSweep pins that sweeps survive too: the record
// reconnects to its recovered cell runs and the folded status is intact.
func TestRestartRecoversSweep(t *testing.T) {
	dir := t.TempDir()
	ts := newDurableServer(t, 4, dir)
	_, body := postJSON(t, ts.URL+"/v1/sweeps", smallSweep)
	var created SweepStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	var done SweepStatus
	getJSON(t, ts.URL+"/v1/sweeps/"+created.ID+"?wait=1", &done)
	if done.State != StateDone {
		t.Fatalf("pre-crash sweep %+v", done)
	}
	pre, _ := json.Marshal(done.Cells)
	ts.Close()

	ts2 := newDurableServer(t, 4, dir)
	var recovered SweepStatus
	getJSON(t, ts2.URL+"/v1/sweeps/"+created.ID, &recovered)
	if recovered.State != StateDone {
		t.Fatalf("recovered sweep %+v", recovered)
	}
	post, _ := json.Marshal(recovered.Cells)
	if !bytes.Equal(pre, post) {
		t.Fatalf("recovered sweep cells diverged:\n got %s\nwant %s", post, pre)
	}
}

// writeStoredRun lays a run record down by hand, simulating what a crash
// left behind.
func writeStoredRun(t *testing.T, dir, id string, spec []byte, frames []byte, mark *terminalMark) {
	t.Helper()
	rd := filepath.Join(dir, "runs", id)
	if err := os.MkdirAll(rd, 0o755); err != nil {
		t.Fatal(err)
	}
	if spec != nil {
		if err := os.WriteFile(filepath.Join(rd, "spec.json"), spec, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if frames != nil {
		if err := os.WriteFile(filepath.Join(rd, "frames.ndjson"), frames, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if mark != nil {
		data, _ := json.Marshal(mark)
		if err := os.WriteFile(filepath.Join(rd, "state.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartResumesInterruptedRun is the resume-from-frontier identity: a
// record interrupted mid-stream (intact prefix + torn tail, no terminal
// marker) restarts, resumes past the prefix, and both the final report and
// the on-disk frames come out byte-identical to an uninterrupted run.
func TestRestartResumesInterruptedRun(t *testing.T) {
	full := streamFor(t, storeSpec)
	lns := streamLines(full)
	specJSON, _ := json.Marshal(storeSpec)
	localReport, err := storeSpec.Report()
	if err != nil {
		t.Fatal(err)
	}
	wantReport, _ := json.Marshal(localReport)

	// One sub-test per frontier: crashed before any frame, after one, after
	// two; each with a torn tail the resume must truncate away.
	for frontier := 0; frontier < 3; frontier++ {
		dir := t.TempDir()
		frames := []byte(strings.Join(lns[:frontier], "\n"))
		if frontier > 0 {
			frames = append(frames, '\n')
		}
		frames = append(frames, []byte(`{"rep":`)...) // torn tail, no newline

		writeStoredRun(t, dir, "run-1", specJSON, frames, nil)
		ts := newDurableServer(t, 2, dir)
		var done RunStatus
		getJSON(t, ts.URL+"/v1/runs/run-1?wait=1", &done)
		if done.State != StateDone || done.Error != "" {
			t.Fatalf("frontier %d: resumed run %+v", frontier, done)
		}
		got, _ := json.Marshal(done.Report)
		if !bytes.Equal(got, wantReport) {
			t.Fatalf("frontier %d: resumed report diverged:\n got %s\nwant %s", frontier, got, wantReport)
		}
		stored, err := os.ReadFile(filepath.Join(dir, "runs", "run-1", "frames.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, full) {
			t.Fatalf("frontier %d: stored frames diverged from the uninterrupted stream:\n got %q\nwant %q",
				frontier, stored, full)
		}
	}
}

// TestRestartReplaysEarlierSpellings: a store written before technique
// names were canonicalised ("red-3", an explicit "Basic") replays — the
// specs decode to the same runs, which resume and report as a fresh
// submission of the same spec would.
func TestRestartReplaysEarlierSpellings(t *testing.T) {
	dir := t.TempDir()
	stored := map[string]string{
		"run-1": `{"technique":"Basic","requests":60,"rate":20,"seed":3}`,
		"run-2": `{"technique":"red-3","requests":60,"rate":20,"seed":3}`,
	}
	for id, spec := range stored {
		writeStoredRun(t, dir, id, []byte(spec), nil, nil)
	}
	ts := newDurableServer(t, 2, dir)
	for id, want := range map[string]pcs.Technique{"run-1": pcs.Basic, "run-2": pcs.RED3} {
		var done RunStatus
		getJSON(t, ts.URL+"/v1/runs/"+id+"?wait=1", &done)
		if done.State != StateDone || done.Spec.Technique != want {
			t.Fatalf("%s replayed as %+v, want a done %s run", id, done, want)
		}
		local, err := pcs.RunSpec{Technique: want, Requests: 60, ArrivalRate: 20, Seed: 3}.Report()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*done.Report, local) {
			t.Fatalf("%s report diverged from a fresh run of its spec", id)
		}
	}
}

// TestRestartRecomputesFromBytes proves recovery reads, it does not re-run:
// a done-marked record whose frames were produced by a different seed
// restores the report MergeStream computes from those bytes — not what
// re-running the spec would produce.
func TestRestartRecomputesFromBytes(t *testing.T) {
	doctored := storeSpec
	doctored.Seed = 99 // frames from seed 99...
	frames := streamFor(t, doctored)
	specJSON, _ := json.Marshal(storeSpec) // ...under a spec that says seed 7

	dir := t.TempDir()
	writeStoredRun(t, dir, "run-1", specJSON, frames, &terminalMark{State: StateDone})
	ts := newDurableServer(t, 2, dir)

	var got RunStatus
	getJSON(t, ts.URL+"/v1/runs/run-1", &got)
	if got.State != StateDone {
		t.Fatalf("doctored run %+v", got)
	}
	fromBytes, err := pcs.MergeStream(bytes.NewReader(frames))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(fromBytes)
	gotJSON, _ := json.Marshal(got.Report)
	if !bytes.Equal(gotJSON, want) {
		t.Fatalf("recovery did not fold the stored bytes:\n got %s\nwant %s", gotJSON, want)
	}
	rerun, err := storeSpec.Report()
	if err != nil {
		t.Fatal(err)
	}
	rerunJSON, _ := json.Marshal(rerun)
	if bytes.Equal(gotJSON, rerunJSON) {
		t.Fatal("doctored report matches a re-run — recovery re-executed the spec")
	}
}

// TestRestartSurfacesDamage pins the failure diagnostics: a done marker
// over damaged frames, an unreadable spec, and a restored canceled state.
func TestRestartSurfacesDamage(t *testing.T) {
	full := streamFor(t, storeSpec)
	lns := streamLines(full)
	specJSON, _ := json.Marshal(storeSpec)

	dir := t.TempDir()
	// run-1: marked done but only 2 of 3 frames survived.
	writeStoredRun(t, dir, "run-1", specJSON,
		[]byte(lns[0]+"\n"+lns[1]+"\n"), &terminalMark{State: StateDone})
	// run-2: spec.json does not parse.
	writeStoredRun(t, dir, "run-2", []byte(`{"technique":`), nil, nil)
	// run-3: terminal canceled, partial frames — restored as-is, no resume.
	writeStoredRun(t, dir, "run-3", specJSON, []byte(lns[0]+"\n"), &terminalMark{State: StateCanceled})

	ts := newDurableServer(t, 2, dir)
	var r1, r2, r3 RunStatus
	getJSON(t, ts.URL+"/v1/runs/run-1", &r1)
	getJSON(t, ts.URL+"/v1/runs/run-2", &r2)
	getJSON(t, ts.URL+"/v1/runs/run-3", &r3)
	if r1.State != StateFailed || !strings.Contains(r1.Error, "marked done but stored frames are damaged") {
		t.Fatalf("damaged done run %+v", r1)
	}
	if r2.State != StateFailed || !strings.Contains(r2.Error, "recovering run-2") {
		t.Fatalf("unreadable spec run %+v", r2)
	}
	if r3.State != StateCanceled || r3.Report != nil {
		t.Fatalf("canceled run %+v", r3)
	}
}
