package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/pcs"
)

// fleetSweep expands to 12 cells (2 techniques × 6 rates) — enough to
// shard 3 ways with every daemon owning four cells.
var fleetSweep = pcs.SweepSpec{
	Base:       pcs.RunSpec{Seed: 3, Requests: 60},
	Techniques: []pcs.Technique{pcs.Basic, pcs.RED3},
	Rates:      []float64{1, 2, 3, 4, 5, 6},
}

// newFleet starts n in-process daemons and returns their base URLs.
func newFleet(t *testing.T, n, capacity int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewServer(New(capacity).Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// TestFleetFanOutIdentity is the fan-out tentpole invariant: a 12-cell
// sweep sharded across a 3-daemon fleet merges to reports byte-identical
// to each cell's local canonical report — and to a single-daemon dispatch
// of the same sweep — because the cell→seed derivation lives in
// SweepSpec.Cells, not in any daemon.
func TestFleetFanOutIdentity(t *testing.T) {
	checkGoroutines(t)
	cells, err := fleetSweep.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 {
		t.Fatalf("sweep expands to %d cells, want 12", len(cells))
	}

	fleet := SweepDispatch{Spec: fleetSweep, Workers: newFleet(t, 3, 2)}
	fleetCells, err := fleet.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	solo := SweepDispatch{Spec: fleetSweep, Workers: newFleet(t, 1, 2)}
	soloCells, err := solo.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(fleetCells) != 12 || len(soloCells) != 12 {
		t.Fatalf("dispatch returned %d/%d cells, want 12", len(fleetCells), len(soloCells))
	}

	workersSeen := map[string]int{}
	for i, cell := range fleetCells {
		if cell.Spec.Technique != cells[i].Technique || cell.Spec.ArrivalRate != cells[i].ArrivalRate {
			t.Fatalf("cell %d out of canonical order: %+v", i, cell.Spec)
		}
		workersSeen[cell.Worker]++
		if cell.Retries != 0 {
			t.Fatalf("healthy fleet retried cell %d on %s", i, cell.Worker)
		}
		// Byte-identity #1: fleet vs single-daemon, frames and reports.
		if !bytes.Equal(cell.Frames, soloCells[i].Frames) {
			t.Fatalf("cell %d frames diverged between fleet shapes", i)
		}
		fleetJSON, _ := json.Marshal(cell.Report)
		soloJSON, _ := json.Marshal(soloCells[i].Report)
		if !bytes.Equal(fleetJSON, soloJSON) {
			t.Fatalf("cell %d report diverged between fleet shapes:\n got %s\nwant %s", i, fleetJSON, soloJSON)
		}
		// Byte-identity #2: fleet vs local canonical report for the cell.
		local, err := cells[i].Report()
		if err != nil {
			t.Fatal(err)
		}
		localJSON, _ := json.Marshal(local)
		if !bytes.Equal(fleetJSON, localJSON) {
			t.Fatalf("cell %d report diverged from local:\n got %s\nwant %s", i, fleetJSON, localJSON)
		}
	}
	// The shard actually spread: every daemon completed its 4 home cells.
	if len(workersSeen) != 3 {
		t.Fatalf("cells completed on %d workers, want 3: %v", len(workersSeen), workersSeen)
	}
	for url, n := range workersSeen {
		if n != 4 {
			t.Fatalf("worker %s completed %d cells, want 4", url, n)
		}
	}

	// The concatenated fleet stream re-merges per cell offline.
	var archive bytes.Buffer
	if err := WriteFrames(&archive, fleetCells); err != nil {
		t.Fatal(err)
	}
	if got, want := bytes.Count(archive.Bytes(), []byte("\n")), 12; got != want {
		t.Fatalf("archived stream has %d frames, want %d", got, want)
	}

	// Local equals fleet: RunCells over the same cells emits exactly the
	// fleet's archived stream, and each cell's canonical aggregate is the
	// fleet's merged report for that cell.
	var local bytes.Buffer
	aggs, err := pcs.RunCells(cells, 0, pcs.StreamTo(&local))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), archive.Bytes()) {
		t.Fatalf("local RunCells frames differ from WriteFrames over the fleet:\n got %s\nwant %s", local.Bytes(), archive.Bytes())
	}
	for i, agg := range aggs {
		agg.Workers = 0
		localJSON, _ := json.Marshal(agg)
		fleetJSON, _ := json.Marshal(fleetCells[i].Report)
		if !bytes.Equal(localJSON, fleetJSON) {
			t.Fatalf("cell %d: local RunCells aggregate diverged from the fleet's report:\n got %s\nwant %s", i, localJSON, fleetJSON)
		}
	}
}

// TestFleetRetriesDeadWorker is the fault case: one of three daemons 500s
// every request, and the client re-dispatches its shard on the survivors —
// the merged reports still come out byte-identical to local.
func TestFleetRetriesDeadWorker(t *testing.T) {
	checkGoroutines(t)
	var hits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error": "disk on fire"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)

	workers := newFleet(t, 2, 2)
	workers = append(workers[:1], append([]string{dead.URL}, workers[1:]...)...) // dead in the middle
	d := SweepDispatch{Spec: fleetSweep, Workers: workers}
	results, err := d.Run(context.Background())
	if err != nil {
		t.Fatalf("dispatch with one dead worker failed: %v", err)
	}
	if hits.Load() == 0 {
		t.Fatal("dead worker was never tried — shard placement changed?")
	}

	cells, err := fleetSweep.Cells()
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for i, cell := range results {
		if cell.Worker == dead.URL {
			t.Fatalf("cell %d reported completion on the dead worker", i)
		}
		if cell.Retries > 0 {
			retried++
		}
		local, err := cells[i].Report()
		if err != nil {
			t.Fatal(err)
		}
		localJSON, _ := json.Marshal(local)
		gotJSON, _ := json.Marshal(cell.Report)
		if !bytes.Equal(gotJSON, localJSON) {
			t.Fatalf("cell %d report diverged after retry:\n got %s\nwant %s", i, gotJSON, localJSON)
		}
	}
	// The dead worker's home shard is cells 1, 4, 7, 10 — all retried.
	if retried != 4 {
		t.Fatalf("%d cells retried, want the dead worker's 4 home cells", retried)
	}
}

// TestFleetAllWorkersDead pins the exhaustion path: when no worker can
// complete a cell the dispatch fails with the last worker error, naming
// the cell.
func TestFleetAllWorkersDead(t *testing.T) {
	checkGoroutines(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error": "no"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	d := SweepDispatch{Spec: fleetSweep, Workers: []string{dead.URL}}
	if _, err := d.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "sweep cell") {
		t.Fatalf("dispatch with no live workers: %v", err)
	}
	if _, err := (SweepDispatch{Spec: fleetSweep}).Run(context.Background()); err == nil {
		t.Fatal("dispatch with no workers accepted")
	}
}
