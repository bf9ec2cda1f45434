package pcs

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func streamOpts(seed int64) RunSpec {
	return RunSpec{
		Technique:   Basic,
		Seed:        seed,
		Nodes:       8,
		ArrivalRate: 80,
		Requests:    400,
	}
}

// TestRunManyStreamBitIdenticalToRunMany is the streaming acceptance
// gate, in two checks: RunCells with an emit computes the aggregate it
// computes without one (observation is free), and MergeStream over the
// emitted frames reproduces it bit for bit (modulo the wall-clock-only
// Workers). The frames decode to exactly the runs the emit saw, each
// reproducible from its recorded seed.
func TestRunManyStreamBitIdenticalToRunMany(t *testing.T) {
	const n, workers = 7, 3
	spec := streamOpts(41)
	spec.Replications = n
	silent, err := RunCells([]RunSpec{spec}, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	write := StreamTo(&buf)
	var runs []Result
	streamed, err := RunCells([]RunSpec{spec}, workers, func(cell int, run StreamedRun) error {
		runs = append(runs, run.Result)
		return write(cell, run)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(silent, streamed) {
		t.Errorf("emitting changed the aggregate\nsilent:   %+v\nstreamed: %+v", silent, streamed)
	}
	merged, err := MergeStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := silent[0]
	want.Workers = 0
	if !reflect.DeepEqual(want, merged) {
		t.Errorf("MergeStream over the frames diverged\nlive:   %+v\nmerged: %+v", want, merged)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != n {
		t.Fatalf("stream has %d lines, want %d", lines, n)
	}
	recs, err := ReadStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if !reflect.DeepEqual(rec.Result, runs[i]) {
			t.Fatalf("replication %d round-tripped differently\nmem:  %+v\nfile: %+v",
				i, runs[i], rec.Result)
		}
		if rec.Rep != i {
			t.Fatalf("replication %d recorded as %d", i, rec.Rep)
		}
		// Each line is independently reproducible from its recorded seed.
		if i == 2 {
			o := spec
			o.Seed = rec.Seed
			redo, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(redo, rec.Result) {
				t.Fatalf("replication %d not reproducible from recorded seed", i)
			}
		}
	}
}

// streamFrames runs n replications of opts through RunCells on the given
// workers and returns the emitted frames and the live aggregate.
func streamFrames(t *testing.T, opts RunSpec, n, workers int) ([]byte, Aggregate) {
	t.Helper()
	var buf bytes.Buffer
	opts.Replications = n
	aggs, err := RunCells([]RunSpec{opts}, workers, StreamTo(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), aggs[0]
}

// TestMergeStreamReproducesAggregate: the on-disk stream folds back into
// the same aggregate, bit for bit (modulo the wall-clock-only Workers
// field, which a file cannot know).
func TestMergeStreamReproducesAggregate(t *testing.T) {
	frames, streamed := streamFrames(t, streamOpts(43), 6, 2)
	merged, err := MergeStream(bytes.NewReader(frames))
	if err != nil {
		t.Fatal(err)
	}
	streamed.Workers = 0
	if !reflect.DeepEqual(streamed, merged) {
		t.Errorf("merge diverged\nlive:   %+v\nmerged: %+v", streamed, merged)
	}
}

func TestMergeStreamRejectsCorruption(t *testing.T) {
	if _, err := MergeStream(strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := MergeStream(strings.NewReader(`{"rep":1,"seed":0,"result":{}}`)); err == nil {
		t.Fatal("stream starting at replication 1 accepted")
	}
	if _, err := MergeStream(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	frames, _ := streamFrames(t, streamOpts(45), 3, 1)
	// Drop the middle line: the gap must be detected.
	lines := strings.SplitAfter(string(frames), "\n")
	if _, err := MergeStream(strings.NewReader(lines[0] + lines[2])); err == nil {
		t.Fatal("gapped stream accepted")
	}
}

// TestRunUntilSinkMatchesAggregate: an adaptive run's sink holds exactly
// the replications it aggregated, and merging it reproduces the summaries.
func TestRunUntilSinkMatchesAggregate(t *testing.T) {
	var buf bytes.Buffer
	agg, err := RunUntil(streamOpts(47), CITarget{
		RelHalfWidth:    0.5, // loose: converge fast
		MaxReplications: 12,
		Workers:         2,
		Sink:            &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != agg.Replications {
		t.Fatalf("sink has %d replications, aggregate %d", len(recs), agg.Replications)
	}
	// The sink holds exactly the frames a fixed-count set of the same
	// length emits.
	if fixed, _ := streamFrames(t, streamOpts(47), agg.Replications, 2); !bytes.Equal(buf.Bytes(), fixed) {
		t.Fatal("adaptive sink differs from the fixed-count frames of the same length")
	}
	merged, err := MergeStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := agg
	want.Workers = 0
	want.Converged = false // execution-time knowledge, not in the file
	if !reflect.DeepEqual(want, merged) {
		t.Errorf("merged adaptive stream diverged\nlive:   %+v\nmerged: %+v", want, merged)
	}
}

// TestRunManyStreamNeedsSink: the daemon's streaming entry point refuses
// to run without somewhere to put the frames.
func TestRunManyStreamNeedsSink(t *testing.T) {
	spec := streamOpts(49)
	spec.Replications = 2
	if err := RunManyStreamFrom(context.Background(), spec, 0, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}

// TestRunManyStreamFromReconstructsFullStream is the resume contract: the
// frames RunManyStreamFrom writes for [from, n) are byte-identical to the
// tail of the full set's RunCells frames, for every split point — so an
// interrupted stream plus a resumed tail is indistinguishable from an
// uninterrupted run.
func TestRunManyStreamFromReconstructsFullStream(t *testing.T) {
	const n = 6
	opts := streamOpts(51)
	frames, _ := streamFrames(t, opts, n, 2)
	full := bytes.NewBuffer(frames)
	lines := strings.SplitAfter(full.String(), "\n")
	spec := opts
	spec.Replications, spec.Workers = n, 2
	for from := 0; from <= n; from++ {
		var resumed bytes.Buffer
		resumed.WriteString(strings.Join(lines[:from], ""))
		if err := RunManyStreamFrom(context.Background(), spec, from, &resumed); err != nil {
			t.Fatalf("resume from %d: %v", from, err)
		}
		if resumed.String() != full.String() {
			t.Fatalf("resume from %d diverged\n got %s\nwant %s", from, resumed.String(), full.String())
		}
	}
	if err := RunManyStreamFrom(context.Background(), spec, n+1, &bytes.Buffer{}); err == nil {
		t.Fatal("resume point past n accepted")
	}
	if err := RunManyStreamFrom(context.Background(), spec, -1, &bytes.Buffer{}); err == nil {
		t.Fatal("negative resume point accepted")
	}
	if err := RunManyStreamFrom(context.Background(), spec, 0, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}

// TestRunManyStreamFromCancellation: a canceled context stops the run at a
// replication boundary — the sink holds only whole, in-order frames and
// the call reports context.Canceled.
func TestRunManyStreamFromCancellation(t *testing.T) {
	opts := streamOpts(53)

	// Already-canceled context: no frames at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	spec := opts
	spec.Replications, spec.Workers = 4, 2
	err := RunManyStreamFrom(ctx, spec, 0, &buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("pre-canceled run wrote %d bytes", buf.Len())
	}

	// Cancel mid-run, from the emit path: the sink must still be a valid
	// in-order prefix of the full stream.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	buf.Reset()
	frames := 0
	sink := writerFunc(func(p []byte) (int, error) {
		frames++
		if frames == 2 {
			cancel()
		}
		return buf.Write(p)
	})
	spec.Replications = 50
	err = RunManyStreamFrom(ctx, spec, 0, sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
	recs, err := ReadStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("canceled run left a corrupt stream: %v", err)
	}
	if len(recs) == 0 || len(recs) >= 50 {
		t.Fatalf("canceled run emitted %d frames, want a strict prefix", len(recs))
	}
	full, _ := streamFrames(t, opts, 50, 2)
	if !strings.HasPrefix(string(full), buf.String()) {
		t.Fatal("canceled run's frames are not a prefix of the full stream")
	}
}

// writerFunc adapts a function to io.Writer for sink instrumentation.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
