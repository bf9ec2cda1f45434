package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. ID groups the
// spans of one repetition or served run; Parent is the enclosing span's
// Span number (0 for a root).
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its number for end and for children.
func (t *tracer) start(name string, id, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, ID: id, Span: len(t.spans) + 1, Parent: parent, StartNs: now, EndNs: -1})
	return len(t.spans)
}

// end closes a span opened by start.
func (t *tracer) end(sp int) {
	if t == nil || sp == 0 {
		return
	}
	t.spans[sp-1].EndNs = time.Since(t.origin).Nanoseconds()
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(name string, id, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Span: len(t.spans) + 1, Parent: parent,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds()})
	return len(t.spans)
}

// selfTime returns, per span name, the summed duration of its spans minus
// the part of each interval its children cover.
func selfTime(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			continue
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered(s, children[s.Span]))
	}
	return out
}

// covered measures the union of the children's intervals clipped to the
// parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		total += v.hi - max(v.lo, end)
		end = v.hi
	}
	return total
}

// writeSpans saves the spans as JSON for offline inspection.
func (t *tracer) writeSpans(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// printSelfTime writes the per-name self-time table, largest first.
func (t *tracer) printSelfTime(w io.Writer) {
	self := selfTime(t.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%-28s %12s\n", "span", "self ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %12.3f\n", n, float64(self[n].Microseconds())/1000)
	}
}
