package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/pcs"
)

// daemonCapacity is the daemon's executor core-token budget: the host's
// two cores.
const daemonCapacity = 2

// daemonMain runs the daemon child: the serve package wired exactly as
// cmd/pcs-serve wires it (NewWithStore, a loopback listener, the startup
// line on stdout), plus two endpoints of the benchmark's own: GET
// /bench/stats reports the daemon's allocation, CPU and RSS counters, and
// GET /bench/kernel runs the calibration kernel in the daemon. SIGTERM
// stops it.
func daemonMain(args []string) int {
	fset := flag.NewFlagSet("daemon", flag.ContinueOnError)
	stateDir := fset.String("state-dir", "", "durable run store")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	s, err := serve.NewWithStore(daemonCapacity, *stateDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		return 1
	}
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("GET /bench/stats", func(w http.ResponseWriter, _ *http.Request) {
		// Collecting first leaves no kernel garbage for the runs that follow.
		runtime.GC()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(readProcStats())
	})
	mux.HandleFunc("GET /bench/kernel", func(w http.ResponseWriter, _ *http.Request) {
		sink += kernel(kernelEvents)
	})
	srv := &http.Server{Handler: mux}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-stop
		srv.Close()
	}()
	fmt.Printf("pcs-serve listening on http://%s\n", ln.Addr())
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		return 1
	}
	return 0
}

// daemon is a running daemon child process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	startup time.Duration // exec → startup line
	client  *http.Client
}

// startDaemon starts a daemon child over the state dir and waits for its
// startup line; startup times exactly that wait.
func startDaemon(dir string) (*daemon, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	cmd := exec.Command(exe, "-daemon", "-state-dir", dir)
	cmd.Stderr = os.Stderr
	// A benchmark that dies unexpectedly takes its daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the daemon: %w", err)
	}
	watchdog := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
	line, err := bufio.NewReader(out).ReadString('\n')
	startup := time.Since(t0)
	watchdog.Stop()
	_, addr, found := strings.Cut(strings.TrimSpace(line), "listening on ")
	if err != nil || !found {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("daemon did not start (read %q: %v)", line, err)
	}
	return &daemon{
		cmd:     cmd,
		url:     addr,
		startup: startup,
		client:  &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{}},
	}, nil
}

// stop sends SIGTERM and waits for the daemon to exit, killing it if it
// does not within 30 s.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("stopping the daemon: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("daemon ignored SIGTERM for 30 s")
	}
}

// stats reads the daemon's own resource counters.
func (d *daemon) stats() (procStats, error) {
	var st procStats
	resp, err := d.client.Get(d.url + "/bench/stats")
	if err != nil {
		return st, fmt.Errorf("reading daemon stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding daemon stats: %w", err)
	}
	return st, nil
}

// kernel times one calibration-kernel call in the daemon, as the client
// sees it: a request, the kernel and the response, the same path a served
// run takes. It returns NaN when the request fails, which the run then
// reports as a non-finite sample.
func (d *daemon) kernel() float64 {
	t0 := time.Now()
	resp, err := d.client.Get(d.url + "/bench/kernel")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: timing the daemon's kernel:", err)
		return math.NaN()
	}
	resp.Body.Close()
	return time.Since(t0).Seconds()
}

// report fetches a run's final report as canonical JSON.
func (d *daemon) report(id string) ([]byte, error) {
	resp, err := d.client.Get(d.url + "/v1/runs/" + id + "?wait=1")
	if err != nil {
		return nil, fmt.Errorf("fetching %s: %w", id, err)
	}
	defer resp.Body.Close()
	var st serve.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", id, err)
	}
	if st.Report == nil {
		return nil, fmt.Errorf("%s has no report (state %s: %s)", id, st.State, st.Error)
	}
	return json.Marshal(st.Report)
}

// specPool is the set of specs a served loop cycles through, with the
// local canonical report of each: the oracle every daemon report must
// equal.
type specPool struct {
	bodies   [][]byte
	reports  [][]byte
	arrivals []int
	// localSeconds is the host time of each local RunSpec.Report.
	localSeconds []float64
}

// buildPool derives the pool from the workload spec: n copies whose seeds
// differ, the first being the spec itself.
func buildPool(spec pcs.RunSpec, cfg runConfig, served bool) (*specPool, error) {
	n := 1
	if served {
		n = cfg.pool
	}
	p := &specPool{}
	for i := 0; i < n; i++ {
		s := spec
		s.Seed = inputSeed(cfg.seed, i)
		body, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		agg, err := s.Report()
		if err != nil {
			return nil, fmt.Errorf("local report: %w", err)
		}
		p.localSeconds = append(p.localSeconds, time.Since(t0).Seconds())
		rep, err := json.Marshal(agg)
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, body)
		p.reports = append(p.reports, rep)
		p.arrivals = append(p.arrivals, agg.Arrivals)
	}
	return p, nil
}

// digestInput is the byte string the served workload's digest pins.
func (p *specPool) digestInput() []byte { return bytes.Join(p.reports, []byte("\n")) }

// runRecord is one served run as the client saw it.
type runRecord struct {
	id     string
	seq    int // order of submission
	spec   int // pool index
	state  string
	err    error
	frames [][]byte // data lines, kept when tracing
	report []byte   // the daemon's report, once verified

	start, posted, firstFrame, lastFrame, ended time.Time
}

func (r *runRecord) latency() time.Duration { return r.ended.Sub(r.start) }

// runOnce POSTs one spec and follows its SSE stream to the end event.
func (d *daemon) runOnce(p *specPool, rec *runRecord, keepFrames bool) {
	rec.start = time.Now()
	resp, err := d.client.Post(d.url+"/v1/runs", "application/json", bytes.NewReader(p.bodies[rec.spec]))
	if err != nil {
		rec.err = err
		return
	}
	var st serve.RunStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("POST /v1/runs: %s", resp.Status)
	}
	if err != nil {
		rec.err = err
		return
	}
	rec.id, rec.posted = st.ID, time.Now()
	stream, err := d.client.Get(d.url + "/v1/runs/" + st.ID + "/stream")
	if err != nil {
		rec.err = err
		return
	}
	defer stream.Body.Close()
	br := bufio.NewReader(stream.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			rec.err = fmt.Errorf("%s stream: %w", st.ID, err)
			return
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "end":
			rec.ended = time.Now()
			var end struct{ State, Error string }
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &end); err != nil {
				rec.err = fmt.Errorf("%s end event: %w", st.ID, err)
			}
			rec.state = end.State
			if rec.lastFrame.IsZero() {
				rec.firstFrame, rec.lastFrame = rec.ended, rec.ended
			}
			return
		case strings.HasPrefix(line, "data: "):
			rec.lastFrame = time.Now()
			if rec.firstFrame.IsZero() {
				rec.firstFrame = rec.lastFrame
			}
			if keepFrames {
				rec.frames = append(rec.frames, []byte(strings.TrimPrefix(line, "data: ")+"\n"))
			}
		}
	}
}

// loop runs one closed-loop client: it submits the next run only after
// the previous one ended, until maxRuns runs were submitted or the
// deadline (if set) passed, but at least one run. It stops at the first
// transport error.
func (d *daemon) loop(p *specPool, first, maxRuns int, deadline time.Time, tr *tracer) []*runRecord {
	var recs []*runRecord
	for i := 0; i < maxRuns && (i == 0 || deadline.IsZero() || time.Now().Before(deadline)); i++ {
		rec := &runRecord{seq: first + i, spec: (first + i) % len(p.bodies)}
		d.runOnce(p, rec, tr != nil)
		traceRun(tr, rec)
		recs = append(recs, rec)
		if rec.err != nil {
			break
		}
	}
	return recs
}

// traceRun records a served run's spans: the POST, the wait for the first
// frame, the frames, and the wait for the end event.
func traceRun(tr *tracer, r *runRecord) {
	if tr == nil || r.err != nil {
		return
	}
	id := 1000 + r.seq
	root := tr.record("serve.run", id, 0, r.start, r.ended)
	tr.record("serve.post", id, root, r.start, r.posted)
	tr.record("serve.first_frame", id, root, r.posted, r.firstFrame)
	tr.record("serve.frames", id, root, r.firstFrame, r.lastFrame)
	tr.record("serve.end", id, root, r.lastFrame, r.ended)
}

// verify checks every run ended done with the report its spec's local
// run produced, and counts the runs as attempted and failed.
func (d *daemon) verify(p *specPool, recs []*runRecord, o *outcome) {
	for _, r := range recs {
		o.attempted++
		if r.err == nil && r.state != serve.StateDone {
			r.err = fmt.Errorf("%s ended %s", r.id, r.state)
		}
		if r.err == nil {
			r.report, r.err = d.report(r.id)
		}
		if r.err == nil && !bytes.Equal(r.report, p.reports[r.spec]) {
			r.err = fmt.Errorf("%s report differs from the local report of its spec", r.id)
		}
		if r.err != nil {
			o.failed++
			o.problem("run %d: %v", r.seq, r.err)
		}
	}
}

// restartCheck restarts the daemon over its state dir and checks that
// every 50th run's recovered report equals its report before the restart.
// It returns the restart's startup time.
func restartCheck(d *daemon, dir string, recs []*runRecord, o *outcome) (time.Duration, error) {
	if err := d.stop(); err != nil {
		return 0, err
	}
	r, err := startDaemon(dir)
	if err != nil {
		return 0, err
	}
	defer r.stop()
	for i := 0; i < len(recs); i += 50 {
		if recs[i].report == nil {
			continue
		}
		got, err := r.report(recs[i].id)
		if err == nil && !bytes.Equal(got, recs[i].report) {
			err = fmt.Errorf("recovered report of %s differs from its report before the restart", recs[i].id)
		}
		if err != nil {
			o.problem("restart: %v", err)
		}
	}
	return r.startup, nil
}

// stateDir makes a fresh daemon state dir under out/.
func stateDir() (string, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp("out", "serve-state-")
}

// restartsPerCalibration spaces the calibrations between timed restarts.
const restartsPerCalibration = 5

// measureServed is the untraced served workload: store prefill runs, time
// the daemon's restart over them (setup_s), run the closed loop for the
// window, then check every report and the recovery after one more
// restart.
func measureServed(w workload, spec pcs.RunSpec, cfg runConfig, o *outcome) error {
	p, err := buildPool(spec, cfg, true)
	if err != nil {
		return err
	}
	digestOK := checkDigest(o, w, cfg.seed, p.digestInput())
	dir, err := stateDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	prefill := d.loop(p, 0, cfg.prefill, time.Time{}, nil)
	d.verify(p, prefill, o)
	// Each restart replays the prefill. The daemon keeps every run in
	// memory, so its RSS is read after each restart, over the fixed
	// prefill, not after a window whose run count varies with speed.
	o.cal.read(o, localKernel)
	for i := 0; i < cfg.setups; i++ {
		err, d = d.stop(), nil
		if err != nil {
			return err
		}
		if i > 0 && i%restartsPerCalibration == 0 {
			o.cal.read(o, localKernel)
		}
		if d, err = startDaemon(dir); err != nil {
			return err
		}
		o.cal.addTime("setup_s", d.startup.Seconds())
		st, err := d.stats()
		if err != nil {
			return err
		}
		o.add("peak_rss_mb", float64(st.MaxRSSKB)/1024)
	}
	o.cal.read(o, localKernel)

	// The window runs in one-second segments with a calibration in the
	// daemon between them, while no run is in flight. Allocations are
	// counted over the segments only, not over the kernel.
	var recs []*runRecord
	var allocs, allocBytes uint64
	arrivals := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	o.cal.read(o, d.kernel)
	for len(recs) == 0 || time.Now().Before(deadline) {
		before, err := d.stats()
		if err != nil {
			return err
		}
		end := time.Now().Add(time.Second)
		if end.After(deadline) {
			end = deadline
		}
		segment := d.loop(p, len(prefill)+len(recs), math.MaxInt, end, nil)
		after, err := d.stats()
		if err != nil {
			return err
		}
		allocs += after.AllocObjects - before.AllocObjects
		allocBytes += after.AllocBytes - before.AllocBytes
		for _, r := range segment {
			if r.err == nil {
				o.cal.addTime("run_s", r.latency().Seconds())
			}
			arrivals += p.arrivals[r.spec]
		}
		recs = append(recs, segment...)
		o.cal.read(o, d.kernel)
	}
	o.add("allocs_per_req", float64(allocs)/float64(max(arrivals, 1)))
	o.add("bytes_per_req", float64(allocBytes)/float64(max(arrivals, 1)))
	d.verify(p, recs, o)
	if !digestOK {
		o.failed = o.attempted
	}
	all := append(prefill, recs...)
	_, err = restartCheck(d, dir, all, o)
	d = nil
	o.note("served %d runs in the window, %d stored before it", len(recs), len(prefill))
	return err
}

// traceServed is the served half of the per-layer pass: the spec (a whole
// window of it for a served workload, one run otherwise) through a fresh
// daemon, then a restart that replays everything it stored. localMs is
// the same work's local host time, the base of serve.overhead_ms.
func traceServed(p *specPool, cfg runConfig, served bool, localMs float64, tr *tracer, o *outcome) error {
	dir, err := stateDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	maxRuns, deadline := 1, time.Time{}
	if served {
		maxRuns = math.MaxInt
		deadline = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	}
	recs := d.loop(p, 0, maxRuns, deadline, tr)
	d.verify(p, recs, o)

	var post, first, end, lat []float64
	var runs [][]byte
	frames := 0
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		post = append(post, ms(r.posted.Sub(r.start)))
		first = append(first, ms(r.firstFrame.Sub(r.start)))
		end = append(end, ms(r.ended.Sub(r.lastFrame)))
		lat = append(lat, ms(r.latency()))
		runs = append(runs, bytes.Join(r.frames, nil))
		frames += len(r.frames)
	}
	if len(lat) == 0 {
		return d.stop()
	}
	o.add("serve.post_ms_p50", median(post))
	o.add("serve.first_frame_ms_p50", median(first))
	o.add("serve.end_ms_p50", median(end))
	o.add("serve.latency_p95_ms", percentile(lat, 95))
	o.add("serve.overhead_ms", median(lat)-localMs)
	o.add("stream.merge_us_per_frame", mergeMicros(runs, frames))
	var stored int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				stored += info.Size()
			}
		}
		return nil
	})
	o.add("serve.store_bytes_per_run", float64(stored)/float64(len(recs)))
	replay, err := restartCheck(d, dir, recs, o)
	if err != nil {
		return err
	}
	o.add("serve.replay_ms_per_run", ms(replay)/float64(len(recs)))
	o.note("served %d runs; latency p50 %.3f ms (n=%d)", len(lat), median(lat), len(lat))
	return nil
}

// mergeMicros times pcs.MergeStream over each captured run's frames,
// repeating the set until 50 ms have passed, in microseconds per frame.
func mergeMicros(runs [][]byte, frames int) float64 {
	if frames == 0 {
		return math.NaN()
	}
	t0 := time.Now()
	n := 0
	for ; n == 0 || time.Since(t0) < 50*time.Millisecond; n++ {
		for _, run := range runs {
			if _, err := pcs.MergeStream(bytes.NewReader(run)); err != nil {
				return math.NaN()
			}
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(n*frames)
}
