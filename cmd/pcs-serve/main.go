// Command pcs-serve is the simulation daemon: a long-running HTTP
// management plane that accepts runs and sweeps as pcs.RunSpec JSON,
// executes them on a bounded work-queue executor, and streams each run's
// NDJSON replication records over SSE — the exact frames pcs.MergeStream
// folds back into the canonical report.
//
// Usage:
//
//	pcs-serve                        # listen on 127.0.0.1:8344
//	pcs-serve -addr 127.0.0.1:0      # pick a free port (printed on stdout)
//	pcs-serve -capacity 8            # budget 8 core tokens (default: all cores)
//	pcs-serve -state-dir /var/pcs    # durable: runs survive a crash/restart
//
//	curl -d @run.json localhost:8344/v1/runs
//	curl localhost:8344/v1/runs/run-1?wait=1
//	curl -N localhost:8344/v1/runs/run-1/stream
//	curl -d @sweep.json localhost:8344/v1/sweeps
//	curl localhost:8344/metrics
//
// The API reference lives in docs/serve.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/serve"
)

// newServer wraps the daemon's handler in an http.Server that bounds what
// a silent client can hold: a connection that has not sent its request
// headers within headerTimeout is closed, and so is a keep-alive
// connection idle for two minutes. It sets no WriteTimeout, because SSE
// streams and ?wait=1 polls outlive any fixed deadline and a write
// deadline cuts them off mid-stream. It sets no ReadTimeout either; spec
// bodies are capped at 1 MiB, but a client stalled inside one is not
// bounded yet.
func newServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: headerTimeout,
		IdleTimeout:       2 * time.Minute,
	}
}

func main() {
	log.SetFlags(0)
	var (
		addr     = flag.String("addr", "127.0.0.1:8344", "listen address (host:port; port 0 picks a free one)")
		capacity = flag.Int("capacity", 0, "executor core-token budget a run's workers × shard width is admitted\nagainst (0 = all cores; a laned run uses one core per worker); queued\nwork waits, in FIFO order")
		stateDir = flag.String("state-dir", "", "persist every run's spec and NDJSON frames under this directory and\nreplay it on startup: completed runs come back queryable with reports\nrecomputed from the stored bytes, interrupted runs resume from their\ncompleted-replication frontier (empty = in-memory only)")
	)
	flag.Parse()

	tokens := *capacity
	if tokens <= 0 {
		tokens = runtime.GOMAXPROCS(0)
	}
	var s *serve.Server
	if *stateDir != "" {
		var err error
		if s, err = serve.NewWithStore(tokens, *stateDir); err != nil {
			log.Fatal(err)
		}
	} else {
		s = serve.New(tokens)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The resolved address on stdout is the startup handshake: scripts
	// (like the CI smoke) read it to find the port when -addr ends in :0.
	fmt.Printf("pcs-serve listening on http://%s (capacity %d tokens)\n", ln.Addr(), tokens)
	log.Fatal(newServer(s.Handler(), 10*time.Second).Serve(ln))
}
