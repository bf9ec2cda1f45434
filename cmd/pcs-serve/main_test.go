package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

const testHeaderTimeout = 100 * time.Millisecond

// startServer serves a fresh daemon through newServer with a short header
// timeout and returns its address.
func startServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(serve.New(2).Handler(), testHeaderTimeout)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestServerClosesStalledHeaders: a client that sends half a request line
// and then goes silent loses its connection once the header timeout
// passes, instead of holding a goroutine and a socket forever. (net/http
// may answer 400 first; the test only needs the close.)
func TestServerClosesStalledHeaders(t *testing.T) {
	addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/que")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(50 * testHeaderTimeout))
	if _, err := io.ReadAll(conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open %v after a half-sent request line", 50*testHeaderTimeout)
	}
}

// TestServerKeepsLongStreams: the header timeout bounds only the headers.
// A run's SSE stream that lasts well past it still reaches its end event.
func TestServerKeepsLongStreams(t *testing.T) {
	addr := startServer(t)
	spec := `{"technique": "Basic", "requests": 4000, "rate": 100, "seed": 3, "replications": 4, "workers": 1}`
	resp, err := http.Post("http://"+addr+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: %s, %v", resp.Status, err)
	}

	start := time.Now()
	resp, err = http.Get("http://" + addr + "/v1/runs/" + created.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	end := ""
	for sc.Scan() {
		if sc.Text() == "event: end" && sc.Scan() {
			end = sc.Text()
			break
		}
	}
	elapsed := time.Since(start)
	if want := `data: {"state":"done","error":""}`; end != want {
		t.Fatalf("stream ended with %q after %v, want %q (%v)", end, elapsed, want, sc.Err())
	}
	if elapsed < 2*testHeaderTimeout {
		t.Fatalf("run streamed in %v, too short to outlive the %v header timeout", elapsed, testHeaderTimeout)
	}
}
