package pcs

import (
	"runtime"
	"testing"
)

// TestRequestPathAllocationsPinned pins the data plane's allocation
// discipline: the heap objects Finish allocates per arrival must stay
// under a per-cell bound, set at the measured value plus ~25% headroom.
// Request-path events are handler records and sub-requests come from
// per-stage slabs, so a closure reintroduced on any per-sub-request event
// adds at least one object per sub-request — 22 per request on the
// nutch-search cells, more on fanout-retry — and breaks the bound.
//
// The large-cluster PCS cell pins the control plane instead: its 194×96
// performance matrix is rebuilt every 2 simulated seconds, and the
// matrix's rows are two contiguous arrays. Allocating each row on its own again (2m objects per
// build, ~5.4 per arrival here) breaks its bound, which sits between that
// and the measured value.
func TestRequestPathAllocationsPinned(t *testing.T) {
	nutch := func(technique string) RunSpec {
		return RunSpec{Technique: technique, Scenario: "nutch-search", Nodes: 8, SearchComponents: 12, Rate: 100, Requests: 1500}
	}
	cells := []struct {
		name  string
		spec  RunSpec
		bound float64 // measured: 4.31, 48.5, 4.59, 49.2, 14.7
	}{
		{"sequential Basic", nutch("Basic"), 5.4},
		{"sequential RED-5", nutch("RED-5"), 61},
		{"sequential PCS", nutch("PCS"), 5.9},
		{"2-lane fanout-retry", RunSpec{Technique: "Basic", Scenario: "fanout-retry", Rate: 150, Requests: 1500, Lanes: 2}, 62},
		{"PCS control plane", RunSpec{Technique: "PCS", Scenario: "large-cluster", Rate: 100, Requests: 600, SchedulingInterval: 2, Seed: 1}, 17.5},
	}
	for _, c := range cells {
		opts, err := c.spec.Options()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSimulation(opts)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := s.Finish()
		runtime.ReadMemStats(&after)
		perArrival := float64(after.Mallocs-before.Mallocs) / float64(res.Arrivals)
		if perArrival > c.bound {
			t.Errorf("%s: %.2f heap objects per arrival, bound %.1f", c.name, perArrival, c.bound)
		}
	}
}
