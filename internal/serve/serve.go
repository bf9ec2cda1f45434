// Package serve is the pcs-serve management plane: a long-running HTTP
// daemon that accepts runs and sweeps as pcs.RunSpec / pcs.SweepSpec JSON,
// executes them on a bounded work-queue executor, and exposes their
// progress as the same NDJSON replication records the CLI streams — over
// SSE, so pcs.MergeStream re-aggregates a subscription bit-identically to
// a local pcs.RunCells at the same spec.
//
// The API surface (see docs/serve.md for the reference with examples):
//
//	POST   /v1/runs            run a RunSpec         → {"id": "run-1", ...}
//	GET    /v1/runs/{id}       status + final report (?wait=1 blocks)
//	GET    /v1/runs/{id}/stream  SSE of the run's NDJSON replication frames
//	DELETE /v1/runs/{id}       cancel the run (dequeue, or stop at the next
//	                           replication boundary)
//	POST   /v1/sweeps          run a SweepSpec grid  → cells as child runs
//	GET    /v1/sweeps/{id}     sweep status + per-cell reports (?wait=1)
//	DELETE /v1/sweeps/{id}     cancel every non-terminal cell
//	GET    /v1/queue           executor depth + per-run token costs
//	GET    /v1/scenarios|policies|techniques  registry introspection
//	GET    /metrics            Prometheus text exposition (hand-rolled)
//
// Reports returned by the daemon are the canonical MergeStream-normal
// pcs.Aggregate — byte-identical JSON to `pcs-sim -spec-file spec.json
// -json` for the same spec, which the CI smoke diffs.
//
// With a state dir (NewWithStore, pcs-serve -state-dir) every run is also
// durable: the spec and the NDJSON frames persist as they stream, and a
// restarted daemon replays the store — completed runs come back queryable
// with reports recomputed by pcs.MergeStream over the stored bytes
// (byte-identical to the pre-crash reports), interrupted runs resume from
// their completed-replication frontier, and unrecoverable records surface
// as failed runs with a diagnostic.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/pcs"
)

// Run states, in lifecycle order. A run is terminal in StateDone,
// StateFailed or StateCanceled.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// terminalState reports whether a state ends the run's lifecycle.
func terminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// run is one executing RunSpec: the daemon-side record a run id resolves
// to, whether submitted directly, as a sweep cell, or replayed from the
// store on restart.
type run struct {
	id     string
	spec   pcs.RunSpec
	buf    *lineBuffer
	done   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	ticket *ticket

	// resumeFrom and intactBytes carry a recovered run's
	// completed-replication frontier: execution starts at replication
	// resumeFrom, appending to the intactBytes-long stored frame prefix.
	resumeFrom  int
	intactBytes int64

	mu     sync.Mutex
	state  string
	errMsg string
	report *pcs.Aggregate
}

// setState transitions the run unless it is already terminal — the first
// terminal transition wins, so a cancel racing a natural completion can
// never flip a done run to canceled or close done twice. It reports
// whether the transition applied.
func (r *run) setState(state, errMsg string, report *pcs.Aggregate) bool {
	r.mu.Lock()
	if terminalState(r.state) {
		r.mu.Unlock()
		return false
	}
	r.state, r.errMsg, r.report = state, errMsg, report
	r.mu.Unlock()
	if terminalState(state) {
		close(r.done)
	}
	return true
}

// snapshot reads the run's mutable fields consistently.
func (r *run) snapshot() (state, errMsg string, report *pcs.Aggregate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state, r.errMsg, r.report
}

// sweep is one executing SweepSpec: its cells are ordinary runs (each with
// its own id and SSE stream) held in canonical cell order.
type sweep struct {
	id    string
	spec  pcs.SweepSpec
	cells []*run
}

// RunStatus is the GET /v1/runs/{id} (and POST /v1/runs) response body.
type RunStatus struct {
	// ID names the run; its stream lives at /v1/runs/{id}/stream.
	ID string `json:"id"`
	// State is one of queued, running, done, failed, canceled.
	State string `json:"state"`
	// Spec echoes the accepted RunSpec.
	Spec pcs.RunSpec `json:"spec"`
	// Error carries the failure reason in state "failed".
	Error string `json:"error,omitempty"`
	// Report is the canonical MergeStream-normal aggregate, present in
	// state "done".
	Report *pcs.Aggregate `json:"report,omitempty"`
}

// SweepCellStatus is one cell of a sweep response: the cell's coordinates
// plus its run's status.
type SweepCellStatus struct {
	// RunID is the cell's run id — streamable like any run's.
	RunID string `json:"runId"`
	// Technique, Rate and Policy are the cell's sweep coordinates.
	Technique string  `json:"technique"`
	Rate      float64 `json:"rate"`
	Policy    string  `json:"policy,omitempty"`
	// Seed is the cell's derived seed (pcs.SweepSpec.Cells derivation).
	Seed int64 `json:"seed"`
	// State, Error and Report mirror the cell run's RunStatus fields.
	State  string         `json:"state"`
	Error  string         `json:"error,omitempty"`
	Report *pcs.Aggregate `json:"report,omitempty"`
}

// SweepStatus is the GET /v1/sweeps/{id} (and POST /v1/sweeps) response
// body. Cells are in canonical expansion order (rates outer, then
// techniques, then policies) regardless of execution interleaving.
type SweepStatus struct {
	// ID names the sweep.
	ID string `json:"id"`
	// State folds the cells: queued (none started), failed (any cell
	// failed), canceled (any cell canceled, none failed), done (all cells
	// done), else running.
	State string `json:"state"`
	// Cells is the per-cell status in canonical order.
	Cells []SweepCellStatus `json:"cells"`
}

// QueueStatus is the GET /v1/queue response body: the executor's token
// budget and occupancy plus every waiting job with the tokens it will
// hold — the admission cost a client can read before deciding what to
// cancel.
type QueueStatus struct {
	// Capacity is the executor's core-token budget; InUse the tokens
	// currently held by running jobs.
	Capacity int `json:"capacity"`
	InUse    int `json:"inUse"`
	// Depth is len(Queued), echoed for cheap polling.
	Depth int `json:"depth"`
	// Queued lists the waiting jobs in FIFO (admission) order.
	Queued []QueueEntry `json:"queued"`
}

// Server is the management plane's state: the run/sweep registries, the
// bounded executor they share, the optional durable store, and the HTTP
// handler over them. Create with New (in-memory) or NewWithStore
// (durable), serve via Handler.
type Server struct {
	capacity int
	exec     *executor
	mux      *http.ServeMux
	store    *store // nil = in-memory only

	mu        sync.Mutex
	runs      map[string]*run
	sweeps    map[string]*sweep
	runSeq    int
	sweepSeq  int
	requests  map[string]int // per-endpoint request counter, for /metrics
	specReps  int            // total replications accepted, for /metrics
	cellsSeen int            // total sweep cells accepted, for /metrics
}

// New builds a Server whose executor budgets the given number of core
// tokens (capacity < 1 clamps to 1; pass runtime.GOMAXPROCS(0) to budget
// the machine). Runs live in memory only; see NewWithStore for the
// durable daemon.
func New(capacity int) *Server {
	if capacity < 1 {
		capacity = 1
	}
	s := &Server{
		capacity: capacity,
		exec:     newExecutor(capacity),
		mux:      http.NewServeMux(),
		runs:     make(map[string]*run),
		sweeps:   make(map[string]*sweep),
		requests: make(map[string]int),
	}
	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			s.count(pattern)
			h(w, r)
		})
	}
	handle("POST /v1/runs", s.handleCreateRun)
	handle("GET /v1/runs/{id}", s.handleGetRun)
	handle("GET /v1/runs/{id}/stream", s.handleStreamRun)
	handle("DELETE /v1/runs/{id}", s.handleCancelRun)
	handle("POST /v1/sweeps", s.handleCreateSweep)
	handle("GET /v1/sweeps/{id}", s.handleGetSweep)
	handle("DELETE /v1/sweeps/{id}", s.handleCancelSweep)
	handle("GET /v1/queue", s.handleQueue)
	handle("GET /v1/scenarios", s.handleScenarios)
	handle("GET /v1/policies", s.handlePolicies)
	handle("GET /v1/techniques", s.handleTechniques)
	handle("GET /metrics", s.handleMetrics)
	return s
}

// NewWithStore builds a durable Server: every admitted run persists its
// spec and NDJSON frames under stateDir, and the store's existing records
// are replayed before the first request — terminal runs come back with
// reports recomputed by pcs.MergeStream over their stored bytes,
// interrupted runs are resubmitted from their completed-replication
// frontier, and records too damaged to resume surface as failed runs
// whose error names the damage.
func NewWithStore(capacity int, stateDir string) (*Server, error) {
	s := New(capacity)
	st, err := openStore(stateDir)
	if err != nil {
		return nil, err
	}
	s.store = st
	if err := s.replay(); err != nil {
		return nil, err
	}
	return s, nil
}

// replay reconstructs the registries from the store. Runs are restored in
// id order, so resumed work re-enters the executor in its original FIFO
// admission order.
func (s *Server) replay() error {
	stored, err := s.store.loadRuns()
	if err != nil {
		return err
	}
	for _, sr := range stored {
		r := s.restoreRun(sr)
		s.mu.Lock()
		s.runs[r.id] = r
		if sr.seq > s.runSeq {
			s.runSeq = sr.seq
		}
		n := sr.spec.Replications
		if n < 1 {
			n = 1
		}
		s.specReps += n
		s.mu.Unlock()
		if !terminalState(r.snapshotState()) {
			r.ticket = s.exec.submit(r.id, s.runCost(r.spec), func() func() { return s.execute(r) })
		}
	}
	sweepIDs, sweepRecs, err := s.store.loadSweeps()
	if err != nil {
		return err
	}
	for i, id := range sweepIDs {
		sw := &sweep{id: id, spec: sweepRecs[i].Spec}
		s.mu.Lock()
		complete := true
		for _, cellID := range sweepRecs[i].Cells {
			cell, ok := s.runs[cellID]
			if !ok {
				complete = false
				break
			}
			sw.cells = append(sw.cells, cell)
		}
		if complete {
			s.sweeps[id] = sw
			s.cellsSeen += len(sw.cells)
		}
		if seq, ok := sweepSeqOf(id); ok && seq > s.sweepSeq {
			s.sweepSeq = seq
		}
		s.mu.Unlock()
	}
	return nil
}

// restoreRun rebuilds one run from its stored record, deciding between
// done (recompute the report from the bytes), failed (with a diagnostic),
// canceled, and resume-from-frontier.
func (s *Server) restoreRun(sr storedRun) *run {
	r := newRunRecord(sr.id, sr.spec)
	r.buf.Write(sr.intact)
	needed := sr.spec.Replications
	if needed < 1 {
		needed = 1
	}

	restoreTerminal := func(state, errMsg string, report *pcs.Aggregate) {
		r.setState(state, errMsg, report)
		r.buf.close()
	}
	finalizeDone := func() bool {
		agg, err := pcs.MergeStream(bytes.NewReader(sr.intact))
		if err != nil {
			restoreTerminal(StateFailed, fmt.Sprintf("recovering %s: merging stored frames: %v", sr.id, err), nil)
			return false
		}
		restoreTerminal(StateDone, "", &agg)
		return true
	}

	switch {
	case sr.specErr != nil:
		restoreTerminal(StateFailed, fmt.Sprintf("recovering %s: %v", sr.id, sr.specErr), nil)
	case sr.terminal != nil && sr.terminal.State == StateDone:
		if sr.complete != needed {
			diag := sr.frameDiag
			if diag == "" {
				diag = fmt.Sprintf("%d of %d frames", sr.complete, needed)
			}
			restoreTerminal(StateFailed,
				fmt.Sprintf("recovering %s: marked done but stored frames are damaged: %s", sr.id, diag), nil)
		} else {
			finalizeDone()
		}
	case sr.terminal != nil:
		restoreTerminal(sr.terminal.State, sr.terminal.Error, nil)
	case sr.complete >= needed:
		// Crashed between the last frame and the terminal marker: the
		// stored stream is complete, so finish the bookkeeping now.
		if finalizeDone() {
			s.store.markTerminal(sr.id, StateDone, "")
		}
	default:
		// Interrupted mid-stream: resume past the intact prefix. The
		// frames file is truncated to the prefix when execution opens it.
		r.resumeFrom = sr.complete
		r.intactBytes = int64(len(sr.intact))
	}
	return r
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// count bumps an endpoint's request counter.
func (s *Server) count(pattern string) {
	s.mu.Lock()
	s.requests[pattern]++
	s.mu.Unlock()
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes a JSON error body: {"error": "..."}.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// runCost estimates the core tokens a spec occupies while executing:
// concurrent replication workers × the per-replication shard width. A
// laned run executes on its replication's own goroutine, so lanes cost
// nothing extra. An all-cores shard count (shards < 0) costs the whole
// budget, which the executor clamps.
func (s *Server) runCost(spec pcs.RunSpec) int {
	if spec.Shards < 0 {
		return s.capacity
	}
	reps := max(1, spec.Replications)
	workers := spec.Workers
	if workers <= 0 || workers > reps {
		workers = reps
	}
	return workers * max(1, spec.Shards)
}

// newRunRecord builds the in-memory record shared by fresh and restored
// runs: an open broadcast buffer and a cancellation context of its own.
func newRunRecord(id string, spec pcs.RunSpec) *run {
	ctx, cancel := context.WithCancel(context.Background())
	return &run{
		id:     id,
		spec:   spec,
		buf:    newLineBuffer(),
		done:   make(chan struct{}),
		ctx:    ctx,
		cancel: cancel,
		state:  StateQueued,
	}
}

// snapshotState reads the run's current state.
func (r *run) snapshotState() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// newRun registers a run for the spec, persists it (when durable), and
// submits it to the executor. Callers must have validated the spec and
// refused its client-named paths.
func (s *Server) newRun(spec pcs.RunSpec) (*run, error) {
	s.mu.Lock()
	s.runSeq++
	r := newRunRecord(fmt.Sprintf("run-%d", s.runSeq), spec)
	s.runs[r.id] = r
	n := spec.Replications
	if n < 1 {
		n = 1
	}
	s.specReps += n
	s.mu.Unlock()
	if s.store != nil {
		if err := s.store.createRun(r.id, spec); err != nil {
			s.finish(r, StateFailed, err.Error(), nil)
			return nil, err
		}
	}
	r.ticket = s.exec.submit(r.id, s.runCost(spec), func() func() { return s.execute(r) })
	return r, nil
}

// finish lands a run's terminal state exactly once: the broadcast buffer
// seals (waking SSE followers into their end event), and the durable
// marker is written so a restart restores the same state. Losing the
// terminal race (the run already ended) is a no-op.
func (s *Server) finish(r *run, state, errMsg string, report *pcs.Aggregate) {
	if !r.setState(state, errMsg, report) {
		return
	}
	r.buf.close()
	if s.store != nil {
		// Best-effort: if the marker write fails the in-memory state is
		// still correct, and a restart replays the frames — a complete
		// stream finalizes to the same done report, an incomplete one
		// resumes.
		s.store.markTerminal(r.id, state, errMsg)
	}
}

// execute runs a registered run to its end and returns the terminal
// transition that publishes it; the executor applies that transition after
// releasing the run's tokens, so a client that sees the terminal state
// never sees the run still holding them. The replications stream as NDJSON
// into the run's broadcast buffer (feeding any SSE subscribers live) and,
// when durable, into the store's fsynced frames file; the final report is
// MergeStream's fold over exactly those frames — the same bytes a
// subscriber saw — so the daemon can never report something its stream
// does not support. A canceled context stops the run at the next
// replication boundary and lands StateCanceled.
func (s *Server) execute(r *run) (publish func()) {
	r.mu.Lock()
	if terminalState(r.state) {
		// Canceled between dispatch and here; nothing to run.
		r.mu.Unlock()
		return nil
	}
	r.state = StateRunning
	r.mu.Unlock()

	land := func(state, errMsg string, report *pcs.Aggregate) func() {
		return func() { s.finish(r, state, errMsg, report) }
	}
	spec, err := r.spec.Options()
	if err != nil {
		return land(StateFailed, err.Error(), nil)
	}
	var sink io.Writer = r.buf
	if s.store != nil {
		ff, err := s.store.frameWriter(r.id, r.intactBytes)
		if err != nil {
			return land(StateFailed, err.Error(), nil)
		}
		defer ff.Close()
		// Durable before broadcast: a frame an SSE subscriber saw is a
		// frame the store can replay.
		sink = io.MultiWriter(ff, r.buf)
	}
	err = pcs.RunManyStreamFrom(r.ctx, spec, r.resumeFrom, sink)
	switch {
	case err == nil:
		agg, merr := pcs.MergeStream(bytes.NewReader(r.buf.bytes()))
		if merr != nil {
			return land(StateFailed, fmt.Sprintf("merging own stream: %v", merr), nil)
		}
		return land(StateDone, "", &agg)
	case errors.Is(err, context.Canceled):
		return land(StateCanceled, "", nil)
	default:
		return land(StateFailed, err.Error(), nil)
	}
}

// cancelRun drives a run toward StateCanceled: a still-queued run is
// dequeued (its tokens were never held) and canceled on the spot; a
// running run gets its context canceled and stops at the next replication
// boundary, with the executor releasing its tokens when the worker
// returns; a terminal run is left untouched.
func (s *Server) cancelRun(r *run) {
	if r.ticket != nil && r.ticket.Abort() {
		s.finish(r, StateCanceled, "", nil)
		return
	}
	r.cancel()
}

// status assembles a run's response body.
func (s *Server) status(r *run) RunStatus {
	state, errMsg, report := r.snapshot()
	return RunStatus{ID: r.id, State: state, Spec: r.spec, Error: errMsg, Report: report}
}

// handleCreateRun accepts a RunSpec, validates it (strict JSON, no
// client-named server path, and spec validation, so e.g. a malformed
// traffic spec fails at submit time), and queues it.
func (s *Server) handleCreateRun(w http.ResponseWriter, req *http.Request) {
	spec, err := readRunSpec(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	r, err := s.newRun(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.status(r))
}

// handleCancelRun is DELETE /v1/runs/{id}: cooperative cancellation. The
// response is the run's status at the moment of the call — cancellation of
// a running run is asynchronous (it lands at the next replication
// boundary), so poll ?wait=1 for the terminal state. Canceling a terminal
// run is a no-op.
func (s *Server) handleCancelRun(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookupRun(w, req)
	if !ok {
		return
	}
	s.cancelRun(r)
	writeJSON(w, http.StatusOK, s.status(r))
}

// handleCancelSweep is DELETE /v1/sweeps/{id}: cancels every non-terminal
// cell (queued cells dequeue immediately, running cells stop at their next
// replication boundary) and returns the sweep's status.
func (s *Server) handleCancelSweep(w http.ResponseWriter, req *http.Request) {
	sw, ok := s.lookupSweep(w, req)
	if !ok {
		return
	}
	for _, cell := range sw.cells {
		s.cancelRun(cell)
	}
	writeJSON(w, http.StatusOK, s.sweepStatus(sw))
}

// handleQueue is GET /v1/queue: the executor's occupancy and the waiting
// jobs with their token costs, in admission order.
func (s *Server) handleQueue(w http.ResponseWriter, _ *http.Request) {
	queued := s.exec.pending()
	_, inUse := s.exec.stats()
	writeJSON(w, http.StatusOK, QueueStatus{
		Capacity: s.capacity,
		InUse:    inUse,
		Depth:    len(queued),
		Queued:   queued,
	})
}

// readRunSpec decodes and fully validates the request body as a RunSpec.
func readRunSpec(req *http.Request) (pcs.RunSpec, error) {
	body, err := readBody(req)
	if err != nil {
		return pcs.RunSpec{}, err
	}
	spec, err := pcs.ParseRunSpec(body)
	if err != nil {
		return pcs.RunSpec{}, err
	}
	if err := rejectClientPaths(spec); err != nil {
		return pcs.RunSpec{}, err
	}
	if err := spec.Validate(); err != nil {
		return pcs.RunSpec{}, err
	}
	return spec, nil
}

// rejectClientPaths refuses a client spec that names a file — a graphFile,
// or a trace path anywhere in its traffic — naming the field: the daemon
// never opens a server path a network client chose. It runs before
// anything touches the filesystem; clients send a graph inline under
// "graph" (pcs-sweep -remote -graph-file does that for them). Specs
// recovered from -state-dir are the daemon's own state and skip it.
func rejectClientPaths(spec pcs.RunSpec) error {
	if spec.GraphFile != "" {
		return fmt.Errorf("graphFile %q: pcs-serve does not open server paths named by clients; send the graph inline under \"graph\"", spec.GraphFile)
	}
	if field, path := tracePath(spec.Traffic, "traffic"); path != "" {
		return fmt.Errorf("%s %q: pcs-serve does not open server paths named by clients", field, path)
	}
	return nil
}

// tracePath returns the first trace path a traffic spec names, with its
// field path, or "" when it names none.
func tracePath(t *pcs.TrafficSpec, field string) (string, string) {
	if t == nil {
		return "", ""
	}
	if t.Path != "" {
		return field + ".path", t.Path
	}
	for i := range t.Tenants {
		if f, p := tracePath(&t.Tenants[i].Source, fmt.Sprintf("%s.tenants[%d].source", field, i)); p != "" {
			return f, p
		}
	}
	return "", ""
}

// readBody reads the request body under the daemon's 1 MiB spec cap.
func readBody(req *http.Request) ([]byte, error) {
	defer req.Body.Close()
	body, err := readAllLimited(req.Body, 1<<20)
	if err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	return body, nil
}

// lookupRun resolves {id} or writes 404.
func (s *Server) lookupRun(w http.ResponseWriter, req *http.Request) (*run, bool) {
	id := req.PathValue("id")
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no run %q", id))
	}
	return r, ok
}

// handleGetRun returns a run's status; ?wait=1 blocks until the run is
// terminal (or the client goes away).
func (s *Server) handleGetRun(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookupRun(w, req)
	if !ok {
		return
	}
	if wantWait(req) {
		select {
		case <-r.done:
		case <-req.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, s.status(r))
}

// wantWait reports whether the request opts into blocking for completion.
func wantWait(req *http.Request) bool {
	v := req.URL.Query().Get("wait")
	return v == "1" || v == "true"
}

// handleStreamRun serves the run's NDJSON replication records over SSE:
// every frame already streamed is replayed, then frames follow live, and a
// terminal "end" event carries the final state. Collecting the data lines
// and folding them with pcs.MergeStream reproduces the run's report
// byte-identically — the frames are the same records pcs.StreamTo writes
// for this spec under pcs.RunCells.
func (s *Server) handleStreamRun(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookupRun(w, req)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	next := 0
	for {
		lines, closed, wake := r.buf.since(next)
		for _, ln := range lines {
			fmt.Fprintf(w, "data: %s\n\n", ln)
			next++
		}
		fl.Flush()
		if closed {
			break
		}
		select {
		case <-wake:
		case <-req.Context().Done():
			return
		}
	}
	// The buffer only seals when the run reaches a terminal state, so this
	// cannot block; it also guarantees the "end" event reports that state.
	<-r.done
	state, errMsg, _ := r.snapshot()
	fmt.Fprintf(w, "event: end\ndata: {\"state\":%q,\"error\":%q}\n\n", state, errMsg)
	fl.Flush()
}

// handleCreateSweep accepts a SweepSpec, expands it into its canonical
// cells, and queues every cell as a child run in expansion order — the
// executor's FIFO admission then makes start order deterministic too.
func (s *Server) handleCreateSweep(w http.ResponseWriter, req *http.Request) {
	body, err := readBody(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := pcs.ParseSweepSpec(body)
	if err == nil {
		err = rejectClientPaths(spec.Base)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cells, err := spec.Cells()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sw := &sweep{spec: spec}
	for _, cell := range cells {
		r, err := s.newRun(cell)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		sw.cells = append(sw.cells, r)
	}
	s.mu.Lock()
	s.sweepSeq++
	sw.id = fmt.Sprintf("sweep-%d", s.sweepSeq)
	s.sweeps[sw.id] = sw
	s.cellsSeen += len(cells)
	s.mu.Unlock()
	if s.store != nil {
		rec := sweepRecord{Spec: spec}
		for _, cell := range sw.cells {
			rec.Cells = append(rec.Cells, cell.id)
		}
		if err := s.store.createSweep(sw.id, rec); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusAccepted, s.sweepStatus(sw))
}

// sweepStatus assembles a sweep's response body from its cells.
func (s *Server) sweepStatus(sw *sweep) SweepStatus {
	out := SweepStatus{ID: sw.id}
	allQueued, allDone, anyFailed, anyCanceled := true, true, false, false
	for _, cell := range sw.cells {
		state, errMsg, report := cell.snapshot()
		if state != StateQueued {
			allQueued = false
		}
		if state != StateDone {
			allDone = false
		}
		if state == StateFailed {
			anyFailed = true
		}
		if state == StateCanceled {
			anyCanceled = true
		}
		out.Cells = append(out.Cells, SweepCellStatus{
			RunID:     cell.id,
			Technique: cell.spec.Technique.String(),
			Rate:      cell.spec.ArrivalRate,
			Policy:    cell.spec.Policy,
			Seed:      cell.spec.Seed,
			State:     state,
			Error:     errMsg,
			Report:    report,
		})
	}
	switch {
	case anyFailed:
		out.State = StateFailed
	case anyCanceled:
		out.State = StateCanceled
	case allDone:
		out.State = StateDone
	case allQueued:
		out.State = StateQueued
	default:
		out.State = StateRunning
	}
	return out
}

// lookupSweep resolves {id} or writes 404.
func (s *Server) lookupSweep(w http.ResponseWriter, req *http.Request) (*sweep, bool) {
	id := req.PathValue("id")
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no sweep %q", id))
	}
	return sw, ok
}

// handleGetSweep returns a sweep's status; ?wait=1 blocks until every cell
// is terminal.
func (s *Server) handleGetSweep(w http.ResponseWriter, req *http.Request) {
	sw, ok := s.lookupSweep(w, req)
	if !ok {
		return
	}
	if wantWait(req) {
		for _, cell := range sw.cells {
			select {
			case <-cell.done:
			case <-req.Context().Done():
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, s.sweepStatus(sw))
}

// handleScenarios lists the scenario registry.
func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, pcs.ScenarioInfos())
}

// handlePolicies lists the closed-loop policy registry.
func (s *Server) handlePolicies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, pcs.PolicyInfos())
}

// handleTechniques lists the six techniques.
func (s *Server) handleTechniques(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, pcs.TechniqueInfos())
}
