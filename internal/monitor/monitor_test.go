package monitor

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xrand"
)

type staticProgram struct {
	id     string
	demand cluster.Vector
}

func (p *staticProgram) ProgramID() string      { return p.id }
func (p *staticProgram) Demand() cluster.Vector { return p.demand }

func TestMonitorSamplesNodes(t *testing.T) {
	engine := sim.NewEngine()
	cl := cluster.New(3, cluster.DefaultCapacity())
	cl.Node(1).Host(&staticProgram{id: "a", demand: cluster.Vector{2, 4, 6, 8}})
	m := New(engine, cl, xrand.New(1), Config{Period: 1, Window: 5, NoiseSigma: 0})
	m.Start()
	engine.Run(10)

	s0 := m.NodeSamples(0)
	s1 := m.NodeSamples(1)
	if len(s0) != 5 || len(s1) != 5 {
		t.Fatalf("window lengths = %d, %d, want 5", len(s0), len(s1))
	}
	for _, v := range s0 {
		if !v.IsZero() {
			t.Fatalf("idle node sampled %v", v)
		}
	}
	for _, v := range s1 {
		if v != (cluster.Vector{2, 4, 6, 8}) {
			t.Fatalf("noiseless sample = %v", v)
		}
	}
}

func TestMonitorWindowEvictsOldest(t *testing.T) {
	engine := sim.NewEngine()
	cl := cluster.New(1, cluster.DefaultCapacity())
	p := &staticProgram{id: "a", demand: cluster.Vector{1, 0, 0, 0}}
	m := New(engine, cl, xrand.New(2), Config{Period: 1, Window: 3, NoiseSigma: 0})
	m.Start()
	engine.Run(2.5) // samples at 0, 1, 2 with node idle
	cl.Node(0).Host(p)
	engine.Run(10) // window fills with the loaded state
	for _, v := range m.NodeSamples(0) {
		if v[cluster.Core] != 1 {
			t.Fatalf("stale sample survived: %v", m.NodeSamples(0))
		}
	}
}

func TestMonitorNoiseIsApplied(t *testing.T) {
	engine := sim.NewEngine()
	cl := cluster.New(1, cluster.DefaultCapacity())
	cl.Node(0).Host(&staticProgram{id: "a", demand: cluster.Vector{5, 5, 5, 5}})
	m := New(engine, cl, xrand.New(3), Config{Period: 1, Window: 8, NoiseSigma: 0.1})
	m.Start()
	engine.Run(10)
	samples := m.NodeSamples(0)
	varied := false
	for _, v := range samples[1:] {
		if v != samples[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("noisy samples are identical")
	}
	// Mean should still track the truth.
	mean := 0.0
	for _, v := range samples {
		mean += v[cluster.Core]
	}
	mean /= float64(len(samples))
	if math.Abs(mean-5) > 1.0 {
		t.Fatalf("noisy mean = %v, want ≈5", mean)
	}
}

// TestMonitorAllNodeSamples: every node's window equals its NodeSamples
// snapshot (oldest first, after the ring has wrapped), is capacity-capped
// so an append cannot overwrite the next node's window, and the whole
// call makes 2 allocations at any node count.
func TestMonitorAllNodeSamples(t *testing.T) {
	engine := sim.NewEngine()
	cl := cluster.New(4, cluster.DefaultCapacity())
	cl.Node(2).Host(&staticProgram{id: "a", demand: cluster.Vector{1, 2, 3, 4}})
	m := New(engine, cl, xrand.New(4), Config{Window: 3, NoiseSigma: 0.02})
	m.Start()
	engine.Run(5)
	all := m.AllNodeSamples()
	if len(all) != 4 {
		t.Fatalf("nodes covered = %d", len(all))
	}
	for i, w := range all {
		want := m.NodeSamples(i)
		if len(w) != 3 || cap(w) != len(w) {
			t.Fatalf("node %d window len %d cap %d, want 3 and capped", i, len(w), cap(w))
		}
		for j := range w {
			if w[j] != want[j] {
				t.Fatalf("node %d window %v, NodeSamples %v", i, w, want)
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { m.AllNodeSamples() }); n != 2 {
		t.Fatalf("AllNodeSamples made %v allocations, want 2", n)
	}
}

func TestArrivalRateEstimation(t *testing.T) {
	engine := sim.NewEngine()
	cl := cluster.New(1, cluster.DefaultCapacity())
	m := New(engine, cl, xrand.New(5), Config{RateWindow: 10})
	m.Start()
	// Feed a steady 50/s arrival stream for 20 seconds.
	proc := xrand.NewArrivalProcess(xrand.New(6), 50)
	for {
		next := proc.Next()
		if next > 20 {
			break
		}
		engine.At(next, func(now float64) { m.RecordArrival(now) })
	}
	engine.Run(20)
	got := m.ArrivalRate()
	if math.Abs(got-50)/50 > 0.15 {
		t.Fatalf("estimated rate = %v, want ≈50", got)
	}
}

func TestArrivalRateEmpty(t *testing.T) {
	engine := sim.NewEngine()
	cl := cluster.New(1, cluster.DefaultCapacity())
	m := New(engine, cl, xrand.New(7), Config{})
	if m.ArrivalRate() != 0 {
		t.Fatal("rate with no arrivals should be 0")
	}
	m.RecordArrival(0)
	if m.ArrivalRate() != 0 {
		t.Fatal("rate with one arrival should be 0 (needs ≥2)")
	}
}

func TestMonitorStop(t *testing.T) {
	engine := sim.NewEngine()
	cl := cluster.New(1, cluster.DefaultCapacity())
	m := New(engine, cl, xrand.New(8), Config{Period: 1, Window: 100})
	m.Start()
	engine.Run(5)
	n := len(m.NodeSamples(0))
	m.Stop()
	engine.Run(20)
	if len(m.NodeSamples(0)) != n {
		t.Fatal("monitor kept sampling after Stop")
	}
}

func TestMonitorDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Period != 1 || cfg.Window != 10 || cfg.RateWindow != 10 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestMonitorSamplesOldestFirst(t *testing.T) {
	engine := sim.NewEngine()
	cl := cluster.New(1, cluster.DefaultCapacity())
	p := &staticProgram{id: "a", demand: cluster.Vector{1, 0, 0, 0}}
	m := New(engine, cl, xrand.New(9), Config{Period: 1, Window: 4, NoiseSigma: 0})
	m.Start()
	engine.Run(1.5) // two samples idle (t=0, t=1)
	cl.Node(0).Host(p)
	engine.Run(3.5) // two samples loaded (t=2, t=3)
	s := m.NodeSamples(0)
	if len(s) != 4 {
		t.Fatalf("window = %d", len(s))
	}
	if s[0][cluster.Core] != 0 || s[3][cluster.Core] != 1 {
		t.Fatalf("not oldest-first: %v", s)
	}
}
