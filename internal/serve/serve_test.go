package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/pcs"
)

func newTestServer(t *testing.T, capacity int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(capacity).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

const smallRun = `{"technique": "Basic", "requests": 300, "rate": 100, "seed": 7, "replications": 2}`

// TestRunLifecycle drives a run through the API: accepted queued, report
// present and canonical after ?wait=1.
func TestRunLifecycle(t *testing.T) {
	ts := newTestServer(t, 2)
	resp, body := postJSON(t, ts.URL+"/v1/runs", smallRun)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: %d %s", resp.StatusCode, body)
	}
	var created RunStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || created.Spec.Seed != 7 {
		t.Fatalf("created %+v", created)
	}

	var done RunStatus
	getJSON(t, ts.URL+"/v1/runs/"+created.ID+"?wait=1", &done)
	if done.State != StateDone || done.Report == nil || done.Error != "" {
		t.Fatalf("finished run %+v", done)
	}
	if done.Report.Replications != 2 || done.Report.Workers != 0 || done.Report.Runs != nil {
		t.Fatalf("report not canonical: %+v", done.Report)
	}

	// The daemon's report must be byte-identical to the local canonical
	// report for the same spec — the cross-entry-point identity.
	local, err := created.Spec.Report()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(local)
	gotJSON, _ := json.Marshal(done.Report)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("daemon report diverged from RunSpec.Report:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestRejections walks the API's error surface.
func TestRejections(t *testing.T) {
	ts := newTestServer(t, 1)
	const tenantTrace = `{"traffic": {"kind": "multi-tenant", "tenants": [
		{"name": "a", "source": {"kind": "poisson", "rate": 5}},
		{"name": "b", "source": {"kind": "trace", "path": "/etc/hostname"}}]}}`
	// want, when set, is a fragment the error must carry: the field named.
	cases := []struct{ path, body, want string }{
		{"/v1/runs", `{"technique": "warp"}`, "warp"}, // unknown technique
		{"/v1/runs", `{"technique": 3}`, ""},          // techniques are names
		{"/v1/runs", `{"tecnique": "PCS"}`, ""},       // unknown field (strict decode)
		{"/v1/runs", `not json`, ""},                  // malformed
		// Server paths are never opened, wherever the spec names one.
		{"/v1/runs", `{"graphFile": "/nope/g.json"}`, "graphFile"},
		{"/v1/runs", `{"traffic": {"kind": "trace", "path": "/etc/hostname"}}`, "traffic.path"},
		{"/v1/runs", tenantTrace, "traffic.tenants[1].source.path"},
		{"/v1/runs", `{"traffic": {"kind": "bogus"}}`, "bogus"}, // fails at submit, not at run
		{"/v1/sweeps", `{"base": {"scenario": "missing"}}`, ""},
		{"/v1/sweeps", `{"base": {}, "techniques": ["warp"]}`, "warp"},
		{"/v1/sweeps", `{"base": {"traffic": {"kind": "trace", "path": "/etc/hostname"}}}`, "traffic.path"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q: %d %s, want 400", c.path, c.body, resp.StatusCode, body)
		}
		if !bytes.Contains(body, []byte(`"error"`)) || !bytes.Contains(body, []byte(c.want)) {
			t.Errorf("POST %s %q: error body %s, want one naming %q", c.path, c.body, body, c.want)
		}
	}
	// A rejected POST creates nothing: run-1 and sweep-1 were never issued.
	for _, path := range []string{"/v1/runs/run-99", "/v1/runs/run-99/stream", "/v1/sweeps/sweep-9",
		"/v1/runs/run-1", "/v1/sweeps/sweep-1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSpecEchoIsCanonical: the accepted spec echoes with the technique's
// canonical name, whatever spelling the client sent, and Basic (the zero
// technique) is omitted.
func TestSpecEchoIsCanonical(t *testing.T) {
	checkGoroutines(t)
	ts := newTestServer(t, 1)
	for sent, echo := range map[string]string{"red-3": `"technique": "RED-3"`, "basic": ""} {
		resp, body := postJSON(t, ts.URL+"/v1/runs",
			`{"technique": "`+sent+`", "requests": 50, "rate": 20}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST technique %q: %d %s", sent, resp.StatusCode, body)
		}
		if echo != "" && !bytes.Contains(body, []byte(echo)) || echo == "" && bytes.Contains(body, []byte(`"technique"`)) {
			t.Errorf("technique %q echoed as %s, want %q", sent, body, echo)
		}
		var created RunStatus
		if err := json.Unmarshal(body, &created); err != nil {
			t.Fatal(err)
		}
		waitState(t, ts.URL+"/v1/runs/"+created.ID)
	}
}

// TestSubmitRejectsGraphFile: a client cannot make the daemon open a
// server path. A run or a sweep base naming graphFile gets 400 naming the
// field, even when the file exists and is valid; the same graph sent
// inline under "graph" is accepted.
func TestSubmitRejectsGraphFile(t *testing.T) {
	checkGoroutines(t)
	ts := newTestServer(t, 1)
	const path = "../../testdata/specs/minigraph.json"
	graph, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/runs", `{"technique": "Basic", "requests": 50, "rate": 20, "graphFile": "` + path + `"}`},
		{"/v1/sweeps", `{"base": {"requests": 50, "graphFile": "` + path + `"}, "rates": [20]}`},
	} {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("graphFile")) {
			t.Errorf("POST %s naming graphFile: %d %s, want 400 naming graphFile", c.path, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/runs",
		`{"technique": "Basic", "requests": 50, "rate": 20, "graph": `+string(graph)+`}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/runs with the graph inline: %d %s, want 202", resp.StatusCode, body)
	}
	var created RunStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	var done RunStatus
	getJSON(t, ts.URL+"/v1/runs/"+created.ID+"?wait=1", &done)
	if done.State != StateDone {
		t.Fatalf("inline-graph run ended %s: %s", done.State, done.Error)
	}
}

// readSSE collects a stream's data lines until the end event, returning
// the NDJSON payload and the terminal event body.
func readSSE(t *testing.T, url string) (ndjson []byte, end string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	var buf bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	inEnd := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: end":
			inEnd = true
		case strings.HasPrefix(line, "data: ") && inEnd:
			return buf.Bytes(), strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, "data: "):
			buf.WriteString(strings.TrimPrefix(line, "data: "))
			buf.WriteByte('\n')
		}
	}
	t.Fatalf("stream ended without end event (got %d bytes): %v", buf.Len(), sc.Err())
	return nil, ""
}

// TestStreamMergesBitIdentically is the tentpole invariant: the SSE frames
// are the same NDJSON records pcs.RunCells emits locally for the
// spec, so MergeStream over a subscription reproduces the local aggregate
// byte for byte — and the daemon's own report matches both.
func TestStreamMergesBitIdentically(t *testing.T) {
	ts := newTestServer(t, 2)
	_, body := postJSON(t, ts.URL+"/v1/runs", smallRun)
	var created RunStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}

	// Subscribe immediately — likely mid-run — to exercise replay+follow.
	streamed, end := readSSE(t, ts.URL+"/v1/runs/"+created.ID+"/stream")
	if !strings.Contains(end, `"state":"done"`) {
		t.Fatalf("end event %s", end)
	}

	var local bytes.Buffer
	localAggs, err := pcs.RunCells([]pcs.RunSpec{created.Spec}, 0, pcs.StreamTo(&local))
	if err != nil {
		t.Fatal(err)
	}
	localAgg := localAggs[0]
	if string(streamed) != local.String() {
		t.Fatalf("SSE frames diverged from local RunCells:\n got %s\nwant %s", streamed, local.Bytes())
	}

	merged, err := pcs.MergeStream(bytes.NewReader(streamed))
	if err != nil {
		t.Fatal(err)
	}
	localAgg.Workers = 0
	localAgg.Runs = nil
	wantJSON, _ := json.Marshal(localAgg)
	gotJSON, _ := json.Marshal(merged)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("MergeStream over SSE diverged:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// A second subscription after completion replays the whole stream.
	replayed, _ := readSSE(t, ts.URL+"/v1/runs/"+created.ID+"/stream")
	if string(replayed) != string(streamed) {
		t.Fatal("replayed stream differs from the live one")
	}
}

const smallSweep = `{
  "base": {"seed": 3, "requests": 60},
  "techniques": ["Basic", "RED-3"],
  "rates": [1, 2]
}`

// TestSweepDeterministicUnderConcurrency pins the executor contract: the
// same sweep returns cells in canonical order with byte-identical reports
// whether the queue runs them one at a time or concurrently, and each
// cell's report equals the cell spec's local canonical report.
func TestSweepDeterministicUnderConcurrency(t *testing.T) {
	finish := func(capacity int) SweepStatus {
		ts := newTestServer(t, capacity)
		resp, body := postJSON(t, ts.URL+"/v1/sweeps", smallSweep)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /v1/sweeps: %d %s", resp.StatusCode, body)
		}
		var created SweepStatus
		if err := json.Unmarshal(body, &created); err != nil {
			t.Fatal(err)
		}
		var done SweepStatus
		getJSON(t, ts.URL+"/v1/sweeps/"+created.ID+"?wait=1", &done)
		if done.State != StateDone {
			t.Fatalf("sweep at capacity %d finished %+v", capacity, done)
		}
		return done
	}

	serial, wide := finish(1), finish(4)
	if len(serial.Cells) != 4 || len(wide.Cells) != 4 {
		t.Fatalf("cell counts %d/%d, want 4", len(serial.Cells), len(wide.Cells))
	}
	order := []string{"Basic", "RED-3", "Basic", "RED-3"}
	for i, cell := range serial.Cells {
		if cell.Technique != order[i] {
			t.Fatalf("cell %d technique %s, want %s", i, cell.Technique, order[i])
		}
		wantJSON, _ := json.Marshal(wide.Cells[i].Report)
		gotJSON, _ := json.Marshal(cell.Report)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("cell %d diverged between capacity 1 and 4", i)
		}
	}
	// Rate-major order and the canonical seed derivation.
	if serial.Cells[0].Rate != 1 || serial.Cells[2].Rate != 2 {
		t.Fatalf("cell rates %+v", serial.Cells)
	}

	// Each cell equals its spec run locally — the sweep is just runs.
	sweep, err := pcs.ParseSweepSpec([]byte(smallSweep))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sweep.Cells()
	if err != nil {
		t.Fatal(err)
	}
	local, err := cells[1].Report()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(local)
	gotJSON, _ := json.Marshal(serial.Cells[1].Report)
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("sweep cell diverged from its spec's local report")
	}
	if serial.Cells[1].Seed != cells[1].Seed {
		t.Fatalf("cell seed %d, want %d", serial.Cells[1].Seed, cells[1].Seed)
	}
}

// TestIntrospectionAndMetrics covers the registry listings and the
// Prometheus text endpoint.
func TestIntrospectionAndMetrics(t *testing.T) {
	ts := newTestServer(t, 1)
	var scenarios, policies, techniques []pcs.Info
	getJSON(t, ts.URL+"/v1/scenarios", &scenarios)
	getJSON(t, ts.URL+"/v1/policies", &policies)
	getJSON(t, ts.URL+"/v1/techniques", &techniques)
	if len(scenarios) == 0 || len(policies) == 0 || len(techniques) != 6 {
		t.Fatalf("introspection sizes %d/%d/%d", len(scenarios), len(policies), len(techniques))
	}
	for _, info := range scenarios {
		if info.Name == "" || info.Description == "" {
			t.Fatalf("undescribed scenario %+v", info)
		}
	}

	_, body := postJSON(t, ts.URL+"/v1/runs", smallRun)
	var created RunStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	var done RunStatus
	getJSON(t, ts.URL+"/v1/runs/"+created.ID+"?wait=1", &done)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type %q", ct)
	}
	for _, want := range []string{
		`pcs_serve_runs{state="done"} 1`,
		`pcs_serve_executor_tokens{kind="capacity"} 1`,
		`pcs_serve_replications_accepted_total 2`,
		`pcs_serve_http_requests_total{endpoint="POST /v1/runs"} 1`,
		"# TYPE pcs_serve_runs gauge",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestExecutorFIFO pins the queue semantics: head-of-line admission (no
// overtaking) against the token budget.
func TestExecutorFIFO(t *testing.T) {
	e := newExecutor(2)
	release1 := make(chan struct{})
	release2 := make(chan struct{})
	started := make(chan int, 3)
	e.submit("run-1", 1, func() func() { started <- 1; <-release1; return nil })
	e.submit("run-2", 2, func() func() { started <- 2; <-release2; return nil })
	e.submit("run-3", 1, func() func() { started <- 3; return nil })

	if got := <-started; got != 1 {
		t.Fatalf("first start %d", got)
	}
	// One token is free — enough for job 3 but not for job 2 at the head
	// of the queue. Strict FIFO means job 3 must not overtake.
	select {
	case got := <-started:
		t.Fatalf("job %d overtook the queue head", got)
	case <-time.After(50 * time.Millisecond):
	}
	if queued, inUse := e.stats(); queued != 2 || inUse != 1 {
		t.Fatalf("stats %d queued / %d in use", queued, inUse)
	}
	close(release1)
	if got := <-started; got != 2 {
		t.Fatalf("second start %d", got)
	}
	// Job 2 now holds both tokens; job 3 waits again.
	select {
	case got := <-started:
		t.Fatalf("job %d started while tokens were exhausted", got)
	case <-time.After(50 * time.Millisecond):
	}
	close(release2)
	if got := <-started; got != 3 {
		t.Fatalf("third start %d", got)
	}
}

// TestExecutorReleasesBeforePublishing pins the order clients rely on: a
// job's publication — the terminal transition its run's watchers observe —
// runs after the job's tokens are back, so occupancy read from inside it
// already shows them released.
func TestExecutorReleasesBeforePublishing(t *testing.T) {
	e := newExecutor(1)
	inUse := make(chan int, 1)
	e.submit("run-1", 1, func() func() {
		return func() {
			_, n := e.stats()
			inUse <- n
		}
	})
	if n := <-inUse; n != 0 {
		t.Fatalf("publication saw %d tokens in use, want 0", n)
	}
}

// TestExecutorAbort extends the FIFO pin to cancellation: aborting a
// queued job dequeues it without disturbing the survivors' order, a wide
// abort at the head unblocks the jobs behind it, and a started job cannot
// be aborted (its tokens are released exactly once, by its own return).
func TestExecutorAbort(t *testing.T) {
	e := newExecutor(2)
	blockA := make(chan struct{})
	started := make(chan string, 4)
	tA := e.submit("a", 2, func() func() { started <- "a"; <-blockA; return nil })
	tB := e.submit("b", 2, func() func() { started <- "b"; return nil })
	tC := e.submit("c", 1, func() func() { started <- "c"; return nil })
	tD := e.submit("d", 1, func() func() { started <- "d"; return nil })

	if got := <-started; got != "a" {
		t.Fatalf("first start %q", got)
	}
	if tA.Abort() {
		t.Fatal("started job reported aborted")
	}
	if got := e.pending(); len(got) != 3 || got[0].RunID != "b" || got[0].Cost != 2 {
		t.Fatalf("pending = %+v", got)
	}
	// Abort the wide head: c and d (still in order) must both start even
	// though a still holds the full budget — only once a returns.
	if !tB.Abort() {
		t.Fatal("queued head not aborted")
	}
	if tB.Abort() {
		t.Fatal("second abort of the same job succeeded")
	}
	select {
	case got := <-started:
		t.Fatalf("job %q started while tokens were exhausted", got)
	case <-time.After(50 * time.Millisecond):
	}
	close(blockA)
	// c and d dispatch in FIFO order but run concurrently (both fit in the
	// freed budget), so assert the set, not the channel arrival order.
	got := map[string]bool{<-started: true, <-started: true}
	if !got["c"] || !got["d"] {
		t.Fatalf("post-abort starts %v, want c and d", got)
	}
	deadline := time.After(time.Second)
	for {
		if q, inUse := e.stats(); q == 0 && inUse == 0 {
			break
		}
		select {
		case <-deadline:
			q, inUse := e.stats()
			t.Fatalf("executor did not drain: %d queued, %d in use", q, inUse)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if tC.Abort() || tD.Abort() {
		t.Fatal("finished jobs reported aborted")
	}
}

// TestLineBuffer pins the broadcast buffer: partial writes coalesce into
// lines, followers replay then follow, close flushes and wakes.
func TestLineBuffer(t *testing.T) {
	b := newLineBuffer()
	fmt.Fprintf(b, "alpha\nbra")
	lines, closed, wake := b.since(0)
	if len(lines) != 1 || lines[0] != "alpha" || closed {
		t.Fatalf("since(0) = %v, %v", lines, closed)
	}
	fmt.Fprintf(b, "vo\n")
	select {
	case <-wake:
	case <-time.After(time.Second):
		t.Fatal("append did not wake the follower")
	}
	lines, _, _ = b.since(1)
	if len(lines) != 1 || lines[0] != "bravo" {
		t.Fatalf("second line %v", lines)
	}
	fmt.Fprintf(b, "tail-no-newline")
	b.close()
	lines, closed, _ = b.since(2)
	if !closed || len(lines) != 1 || lines[0] != "tail-no-newline" {
		t.Fatalf("after close: %v, %v", lines, closed)
	}
	if got := string(b.bytes()); got != "alpha\nbravo\ntail-no-newline\n" {
		t.Fatalf("bytes = %q", got)
	}
}

// TestRunCostChargesShardsNotLanes pins the executor's charge: workers ×
// max(1, shards) core tokens, the whole capacity for an all-cores shard
// count, and nothing extra for lanes — a laned replication runs on its
// own goroutine.
func TestRunCostChargesShardsNotLanes(t *testing.T) {
	s := New(16)
	for _, c := range []struct {
		spec pcs.RunSpec
		want int
	}{
		{pcs.RunSpec{Replications: 4, Workers: 2}, 2},
		{pcs.RunSpec{Replications: 4, Workers: 2, Lanes: 8}, 2},
		{pcs.RunSpec{Replications: 4, Workers: 2, Lanes: -1}, 2},
		{pcs.RunSpec{Replications: 3, Lanes: 8}, 3},
		{pcs.RunSpec{Lanes: 4}, 1},
		{pcs.RunSpec{Replications: 4, Workers: 2, Shards: 3, Lanes: 8}, 6},
		{pcs.RunSpec{Replications: 4, Workers: 2, Shards: -1}, 16},
	} {
		if got := s.runCost(c.spec); got != c.want {
			t.Errorf("runCost(workers %d, replications %d, shards %d, lanes %d) = %d, want %d",
				c.spec.Workers, c.spec.Replications, c.spec.Shards, c.spec.Lanes, got, c.want)
		}
	}
}
