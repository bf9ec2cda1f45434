package serve

import (
	"bytes"
	"testing"

	"repro/pcs"
)

// FuzzStoreRecover pins the crash-recovery scanner against arbitrary
// stored frame bytes — whatever a crash, a partial fsync, or a corrupted
// disk leaves in frames.ndjson. The invariants: recoverFrames never
// panics; its intact result is always a byte prefix of the input made of
// exactly `complete` whole in-order frames; that prefix re-reads cleanly
// through the pcs stream decoders (MergeStream succeeds whenever any
// frame survived); and recovery is idempotent — recovering the recovered
// prefix changes nothing and reports no damage.
func FuzzStoreRecover(f *testing.F) {
	// Seed with the genuine article: a real stream from a testdata/specs
	// style run, plus the corruption shapes the unit table walks.
	spec := pcs.RunSpec{Technique: pcs.Basic, Requests: 200, ArrivalRate: 100, Seed: 7, Replications: 3}
	var full bytes.Buffer
	if _, err := pcs.RunCells([]pcs.RunSpec{spec}, 0, pcs.StreamTo(&full)); err != nil {
		f.Fatal(err)
	}
	stream := full.Bytes()
	first := stream[:bytes.IndexByte(stream, '\n')+1]
	f.Add(stream)
	f.Add(stream[:len(stream)-5])                       // torn last line
	f.Add(append(append([]byte{}, first...), first...)) // duplicate frame
	f.Add([]byte(`{"rep":0,"seed":7,"result":{}}` + "\n"))
	f.Add([]byte(`{"rep":1}` + "\n")) // starts mid-stream
	f.Add([]byte("not json\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		intact, complete, diag := recoverFrames(data)
		if !bytes.HasPrefix(data, intact) {
			t.Fatalf("intact is not a byte prefix of the input")
		}
		if complete < 0 {
			t.Fatalf("negative frame count %d", complete)
		}
		if len(intact) > 0 && intact[len(intact)-1] != '\n' {
			t.Fatalf("intact prefix does not end at a frame boundary: %q", intact)
		}
		if len(intact) < len(data) && diag == "" {
			t.Fatalf("dropped %d bytes without a diagnostic", len(data)-len(intact))
		}
		recs, err := pcs.ReadStream(bytes.NewReader(intact))
		if err != nil {
			t.Fatalf("intact prefix does not re-read: %v", err)
		}
		if len(recs) != complete {
			t.Fatalf("prefix re-reads as %d records, recovery said %d", len(recs), complete)
		}
		if complete > 0 {
			if _, err := pcs.MergeStream(bytes.NewReader(intact)); err != nil {
				t.Fatalf("MergeStream over intact prefix: %v", err)
			}
		}
		again, n, d := recoverFrames(intact)
		if !bytes.Equal(again, intact) || n != complete || d != "" {
			t.Fatalf("recovery not idempotent: %d frames, diag %q", n, d)
		}
	})
}
