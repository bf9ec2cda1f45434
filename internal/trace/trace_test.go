package trace

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/xrand"
)

func TestReservoirBelowCapacity(t *testing.T) {
	r := NewReservoir(10, xrand.New(1))
	for i := 0; i < 5; i++ {
		r.Add(float64(i))
	}
	if r.Len() != 5 || r.Seen() != 5 {
		t.Fatalf("len=%d seen=%d", r.Len(), r.Seen())
	}
	for i, v := range r.Values() {
		if v != float64(i) {
			t.Fatalf("values = %v", r.Values())
		}
	}
}

func TestReservoirCapsMemory(t *testing.T) {
	r := NewReservoir(100, xrand.New(2))
	for i := 0; i < 100000; i++ {
		r.Add(float64(i))
	}
	if r.Len() != 100 {
		t.Fatalf("len = %d, want 100", r.Len())
	}
	if r.Seen() != 100000 {
		t.Fatalf("seen = %d", r.Seen())
	}
}

// TestReservoirReserveKeepsValuesAndDraws feeds one stream to a reservoir
// reserved for less than its capacity, one not reserved and one reserved
// past it: all three must hold the same values and leave their sources at
// the same point, since Algorithm R draws only once the reservoir is full.
func TestReservoirReserveKeepsValuesAndDraws(t *testing.T) {
	const capacity, n = 500, 4000
	reserved, plain, over := NewReservoir(capacity, xrand.New(9)), NewReservoir(capacity, xrand.New(9)), NewReservoir(capacity, xrand.New(9))
	reserved.Reserve(capacity / 4)
	over.Reserve(10 * capacity)
	if got := cap(over.Values()); got != capacity {
		t.Fatalf("reserving past the capacity holds %d slots, want %d", got, capacity)
	}
	for i := 0; i < n; i++ {
		x := math.Sin(float64(i))
		reserved.Add(x)
		plain.Add(x)
		over.Add(x)
		if i == capacity/8 {
			reserved.Reserve(capacity / 2) // a reservation mid-stream keeps what is held
		}
	}
	next := plain.src.Int63()
	for _, r := range []*Reservoir{reserved, over} {
		if r.Len() != plain.Len() || r.Seen() != plain.Seen() {
			t.Fatalf("len %d seen %d, unreserved len %d seen %d", r.Len(), r.Seen(), plain.Len(), plain.Seen())
		}
		for i, v := range r.Values() {
			if math.Float64bits(v) != math.Float64bits(plain.Values()[i]) {
				t.Fatalf("value %d = %v, unreserved %v", i, v, plain.Values()[i])
			}
		}
		if got := r.src.Int63(); got != next {
			t.Fatalf("next draw %d, unreserved %d: the reservation changed the draws", got, next)
		}
	}
}

func TestReservoirIsApproximatelyUniform(t *testing.T) {
	// The retained sample's mean should approximate the stream's mean.
	r := NewReservoir(2000, xrand.New(3))
	const n = 200000
	for i := 0; i < n; i++ {
		r.Add(float64(i))
	}
	mean := 0.0
	for _, v := range r.Values() {
		mean += v
	}
	mean /= float64(r.Len())
	want := float64(n-1) / 2
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("reservoir mean = %v, want ≈%v", mean, want)
	}
}

func TestReservoirPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewReservoir(0) did not panic")
		}
	}()
	NewReservoir(0, xrand.New(1))
}

func TestCollectorWarmupFiltering(t *testing.T) {
	c := NewCollector(2, 100, xrand.New(4))
	c.WarmupUntil = 10
	c.RecordOverall(5, 1.0)    // dropped
	c.RecordOverall(15, 0.002) // kept
	c.RecordComponent(5, 0, 1.0)
	c.RecordComponent(15, 0, 0.001)
	if c.NumOverall() != 1 {
		t.Fatalf("kept %d overall, want 1", c.NumOverall())
	}
	rep := c.Report()
	if rep.Requests != 1 {
		t.Fatalf("requests = %d", rep.Requests)
	}
	if math.Abs(rep.AvgOverallMs-2.0) > 1e-9 {
		t.Fatalf("avg overall = %v ms, want 2", rep.AvgOverallMs)
	}
}

func TestCollectorReportUnits(t *testing.T) {
	c := NewCollector(1, 100, xrand.New(5))
	for i := 0; i < 100; i++ {
		c.RecordOverall(1, 0.010) // 10ms
		c.RecordComponent(1, 0, 0.005)
	}
	rep := c.Report()
	if math.Abs(rep.AvgOverallMs-10) > 1e-9 {
		t.Fatalf("avg overall = %v, want 10ms", rep.AvgOverallMs)
	}
	if math.Abs(rep.P99ComponentMs-5) > 1e-9 {
		t.Fatalf("p99 comp = %v, want 5ms", rep.P99ComponentMs)
	}
	if math.Abs(rep.StageMeanMs[0]-5) > 1e-9 {
		t.Fatalf("stage mean = %v", rep.StageMeanMs[0])
	}
}

// TestFinalReportMatchesReport: the in-place summary equals the copying
// one, before and after, over a reservoir that replaced samples, and
// allocates only the stage means.
func TestFinalReportMatchesReport(t *testing.T) {
	c := NewCollector(2, 500, xrand.New(8))
	src := xrand.New(9)
	for i := 0; i < 2000; i++ {
		c.RecordOverall(1, src.Float64())
		c.RecordComponent(1, i%2, src.Exp(0.001))
	}
	before := c.Report()
	var final Report
	if n := testing.AllocsPerRun(1, func() { final = c.FinalReport() }); n > 1 {
		t.Errorf("FinalReport made %v allocations, want 1", n)
	}
	if !reflect.DeepEqual(before, final) {
		t.Fatalf("FinalReport differs from Report:\n%+v\n%+v", final, before)
	}
	if after := c.Report(); !reflect.DeepEqual(after, final) {
		t.Fatalf("Report after FinalReport differs:\n%+v\n%+v", after, final)
	}
	if !sort.Float64sAreSorted(c.component.Values()) || !sort.Float64sAreSorted(c.overall) {
		t.Error("FinalReport left the collector's latencies unsorted")
	}
}

func TestCollectorStageOutOfRangeIgnored(t *testing.T) {
	c := NewCollector(1, 100, xrand.New(6))
	c.RecordComponent(1, 5, 0.001) // stage out of range: recorded globally, not per-stage
	rep := c.Report()
	if rep.Component.N != 1 {
		t.Fatalf("component sample lost: %d", rep.Component.N)
	}
}

func TestCollectorEmptyReport(t *testing.T) {
	c := NewCollector(3, 10, xrand.New(7))
	rep := c.Report()
	if rep.Requests != 0 || rep.AvgOverallMs != 0 || rep.P99ComponentMs != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
	if len(rep.StageMeanMs) != 3 {
		t.Fatalf("stage means = %v", rep.StageMeanMs)
	}
}
