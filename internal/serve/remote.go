package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/pcs"
)

// Client is a minimal pcs-serve API client: enough surface to submit a
// run, follow its SSE frame stream, and cancel it. The zero value is not
// usable — set Base to the daemon's base URL ("http://host:port").
type Client struct {
	// Base is the daemon's base URL, without a trailing slash.
	Base string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// url joins a path onto the daemon base.
func (c *Client) url(path string) string { return strings.TrimRight(c.Base, "/") + path }

// decodeResponse reads an API response, mapping non-2xx statuses (and
// their {"error": ...} bodies) to errors.
func decodeResponse(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := readAllLimited(resp.Body, 1<<26)
	if err != nil {
		return fmt.Errorf("serve: reading response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("serve: %s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("serve: %s", resp.Status)
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("serve: decoding response: %w", err)
	}
	return nil
}

// CreateRun submits a RunSpec (POST /v1/runs) and returns the accepted
// run's status.
func (c *Client) CreateRun(ctx context.Context, spec pcs.RunSpec) (RunStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return RunStatus{}, fmt.Errorf("serve: encoding spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/v1/runs"), bytes.NewReader(body))
	if err != nil {
		return RunStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return RunStatus{}, fmt.Errorf("serve: POST /v1/runs: %w", err)
	}
	var status RunStatus
	if err := decodeResponse(resp, &status); err != nil {
		return RunStatus{}, err
	}
	return status, nil
}

// CancelRun cancels a run (DELETE /v1/runs/{id}).
func (c *Client) CancelRun(ctx context.Context, id string) (RunStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.url("/v1/runs/"+id), nil)
	if err != nil {
		return RunStatus{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return RunStatus{}, fmt.Errorf("serve: DELETE /v1/runs/%s: %w", id, err)
	}
	var status RunStatus
	if err := decodeResponse(resp, &status); err != nil {
		return RunStatus{}, err
	}
	return status, nil
}

// StreamRun subscribes to a run's SSE stream and returns its NDJSON
// replication frames — the exact bytes pcs.RunCells' emit writes through
// pcs.StreamTo locally for the run's spec — once the stream's end event reports a
// terminal state. A stream that ends without its end event (the daemon
// died mid-run) is a transport error; a stream whose end event reports
// failed or canceled returns an error naming that state, because re-running
// the same spec elsewhere would deterministically repeat a spec-level
// failure.
func (c *Client) StreamRun(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/runs/"+id+"/stream"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: streaming %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: streaming %s: %s", id, resp.Status)
	}
	var frames bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	inEnd := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: end":
			inEnd = true
		case strings.HasPrefix(line, "data: ") && inEnd:
			var end struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			payload := strings.TrimPrefix(line, "data: ")
			if err := json.Unmarshal([]byte(payload), &end); err != nil {
				return nil, fmt.Errorf("serve: streaming %s: bad end event %q", id, payload)
			}
			if end.State != StateDone {
				return nil, fmt.Errorf("serve: run %s ended %s: %s", id, end.State, end.Error)
			}
			return frames.Bytes(), nil
		case strings.HasPrefix(line, "data: "):
			frames.WriteString(strings.TrimPrefix(line, "data: "))
			frames.WriteByte('\n')
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: streaming %s: %w", id, err)
	}
	return nil, fmt.Errorf("serve: streaming %s: stream closed before its end event", id)
}

// SweepDispatch fans a sweep out across a fleet of pcs-serve daemons:
// the sweep's canonical cells are sharded round-robin over Workers, each
// cell runs remotely with its NDJSON frame stream pulled back over SSE,
// and the frames are merged centrally with pcs.MergeStream. Because the
// cell→seed derivation lives in pcs.SweepSpec.Cells — not in any daemon —
// the merged reports are byte-identical to running the same sweep on a
// single daemon, or locally with pcs-sim, whatever the fleet shape.
//
// A worker that errors (refused connection, non-2xx, a stream cut
// mid-run) does not sink its shard: each affected cell is retried on the
// surviving workers in turn, and only a cell no worker can complete fails
// the dispatch. Spec-level failures (the run itself ends failed) are not
// retried — they would deterministically repeat anywhere.
type SweepDispatch struct {
	// Spec is the sweep to expand and shard.
	Spec pcs.SweepSpec
	// Workers are the daemon base URLs the cells shard across (cell i
	// starts on Workers[i % len(Workers)]). At least one is required.
	Workers []string
	// HTTP is the shared transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

// CellResult is one fan-out cell, merged centrally.
type CellResult struct {
	// Spec is the cell's RunSpec (canonical expansion order).
	Spec pcs.RunSpec `json:"spec"`
	// Worker is the daemon that completed the cell; RunID its id there.
	Worker string `json:"worker"`
	RunID  string `json:"runId"`
	// Retries counts the workers that failed the cell before one
	// completed it.
	Retries int `json:"retries,omitempty"`
	// Frames is the cell's NDJSON replication stream, byte-identical to
	// the frames a local pcs.RunCells emits for the cell.
	Frames []byte `json:"-"`
	// Report is pcs.MergeStream folded over Frames — the canonical
	// aggregate, byte-identical to the cell spec's local Report.
	Report pcs.Aggregate `json:"report"`
}

// Run dispatches the sweep and returns its cells in canonical order.
func (d SweepDispatch) Run(ctx context.Context) ([]CellResult, error) {
	if len(d.Workers) == 0 {
		return nil, fmt.Errorf("serve: sweep dispatch needs at least one worker URL")
	}
	cells, err := d.Spec.Cells()
	if err != nil {
		return nil, err
	}
	clients := make([]*Client, len(d.Workers))
	for i, base := range d.Workers {
		clients[i] = &Client{Base: base, HTTP: d.HTTP}
	}

	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	// One lane per worker: a worker's home cells run in submission order
	// against its FIFO executor, and lanes proceed independently so one
	// slow or dead daemon does not stall the fleet.
	for w := range clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cells); i += len(clients) {
				results[i], errs[i] = d.runCell(ctx, clients, w, cells[i])
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: sweep cell %d (%s/λ=%g): %w",
				i, cells[i].Technique, cells[i].ArrivalRate, err)
		}
	}
	return results, nil
}

// runCell runs one cell on its home worker, falling over to each surviving
// worker in turn on transport-level failure.
func (d SweepDispatch) runCell(ctx context.Context, clients []*Client, home int, spec pcs.RunSpec) (CellResult, error) {
	var lastErr error
	for attempt := 0; attempt < len(clients); attempt++ {
		c := clients[(home+attempt)%len(clients)]
		if err := ctx.Err(); err != nil {
			return CellResult{}, err
		}
		created, err := c.CreateRun(ctx, spec)
		if err != nil {
			lastErr = fmt.Errorf("%s: %w", c.Base, err)
			continue
		}
		frames, err := c.StreamRun(ctx, created.ID)
		if err != nil {
			lastErr = fmt.Errorf("%s: %w", c.Base, err)
			if strings.Contains(err.Error(), "ended "+StateFailed) {
				return CellResult{}, lastErr // deterministic spec failure: retrying cannot help
			}
			continue
		}
		report, err := pcs.MergeStream(bytes.NewReader(frames))
		if err != nil {
			lastErr = fmt.Errorf("%s: merging streamed frames: %w", c.Base, err)
			continue
		}
		return CellResult{
			Spec:    spec,
			Worker:  c.Base,
			RunID:   created.ID,
			Retries: attempt,
			Frames:  frames,
			Report:  report,
		}, nil
	}
	return CellResult{}, lastErr
}

// WriteFrames concatenates every cell's NDJSON frames to w in canonical
// cell order — the fleet-merged sweep stream, one replication record per
// line, cell after cell, for archival or offline per-cell re-merging.
func WriteFrames(w io.Writer, cells []CellResult) error {
	for _, cell := range cells {
		if _, err := w.Write(cell.Frames); err != nil {
			return err
		}
	}
	return nil
}
