package cluster

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

type fakeProgram struct {
	id     string
	demand Vector
}

func (p *fakeProgram) ProgramID() string { return p.id }
func (p *fakeProgram) Demand() Vector    { return p.demand }

func vecAlmostEqual(a, b Vector, tol float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestVectorAddSub(t *testing.T) {
	a := Vector{1, 2, 3, 4}
	b := Vector{0.5, 1, 1.5, 2}
	sum := a.Add(b)
	if !vecAlmostEqual(sum, Vector{1.5, 3, 4.5, 6}, 1e-12) {
		t.Fatalf("Add = %v", sum)
	}
	diff := sum.Sub(b)
	if !vecAlmostEqual(diff, a, 1e-12) {
		t.Fatalf("Sub = %v, want %v", diff, a)
	}
}

func TestVectorSubClampsAtZero(t *testing.T) {
	a := Vector{1, 0, 0, 0}
	b := Vector{2, 1, 0, 0}
	got := a.Sub(b)
	if !got.IsZero() {
		t.Fatalf("Sub should clamp to zero, got %v", got)
	}
}

func TestVectorScale(t *testing.T) {
	v := Vector{1, 2, 3, 4}.Scale(0.5)
	if !vecAlmostEqual(v, Vector{0.5, 1, 1.5, 2}, 1e-12) {
		t.Fatalf("Scale = %v", v)
	}
}

func TestVectorClamp(t *testing.T) {
	v := Vector{10, 5, 300, 50}
	cap := Vector{8, 0, 200, 100} // zero capacity = unlimited
	got := v.Clamp(cap)
	want := Vector{8, 5, 200, 50}
	if !vecAlmostEqual(got, want, 1e-12) {
		t.Fatalf("Clamp = %v, want %v", got, want)
	}
}

func TestVectorAddCommutative(t *testing.T) {
	f := func(a, b Vector) bool {
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				return true
			}
		}
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorAddSubRoundTripNonNegative(t *testing.T) {
	// For non-negative vectors, (a+b)−b == a (Sub clamps, but the result
	// never goes below zero here).
	f := func(a, b Vector) bool {
		for i := range a {
			a[i] = math.Abs(math.Mod(a[i], 1e6))
			b[i] = math.Abs(math.Mod(b[i], 1e6))
			if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
				return true
			}
		}
		got := a.Add(b).Sub(b)
		return vecAlmostEqual(got, a, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceStrings(t *testing.T) {
	want := map[Resource]string{
		Core: "core", Cache: "cache", DiskBW: "diskBW", NetBW: "networkBW",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
	if Resource(99).String() == "" {
		t.Error("unknown resource should still format")
	}
	if len(Resources()) != NumResources {
		t.Error("Resources() must cover all resource kinds")
	}
}

func TestNodeHostEvict(t *testing.T) {
	n := NewNode(0, DefaultCapacity())
	p := &fakeProgram{id: "a", demand: Vector{1, 2, 3, 4}}
	n.Host(p)
	if !n.Hosts("a") || n.NumPrograms() != 1 {
		t.Fatal("program not hosted")
	}
	if !vecAlmostEqual(n.Contention(), p.demand, 1e-12) {
		t.Fatalf("contention = %v", n.Contention())
	}
	if !n.Evict("a") {
		t.Fatal("evict failed")
	}
	if n.Hosts("a") || !n.Contention().IsZero() {
		t.Fatal("program still present after evict")
	}
	if n.Evict("a") {
		t.Fatal("second evict should report false")
	}
}

func TestNodeDoubleHostPanics(t *testing.T) {
	n := NewNode(0, DefaultCapacity())
	p := &fakeProgram{id: "a"}
	n.Host(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double host did not panic")
		}
	}()
	n.Host(p)
}

func TestNodeContentionAggregatesAndClamps(t *testing.T) {
	cap := Vector{10, 10, 10, 10}
	n := NewNode(0, cap)
	n.Host(&fakeProgram{id: "a", demand: Vector{6, 1, 2, 3}})
	n.Host(&fakeProgram{id: "b", demand: Vector{6, 1, 2, 3}})
	got := n.Contention()
	want := Vector{10, 2, 4, 6} // core clamped at capacity
	if !vecAlmostEqual(got, want, 1e-12) {
		t.Fatalf("contention = %v, want %v", got, want)
	}
	raw := n.RawDemand()
	if !vecAlmostEqual(raw, Vector{12, 2, 4, 6}, 1e-12) {
		t.Fatalf("raw demand = %v", raw)
	}
}

func TestNodeContentionExcluding(t *testing.T) {
	n := NewNode(0, DefaultCapacity())
	a := &fakeProgram{id: "a", demand: Vector{1, 1, 1, 1}}
	b := &fakeProgram{id: "b", demand: Vector{2, 2, 2, 2}}
	n.Host(a)
	n.Host(b)
	got := n.ContentionExcluding("a")
	if !vecAlmostEqual(got, b.demand, 1e-12) {
		t.Fatalf("ContentionExcluding = %v, want %v", got, b.demand)
	}
	// Excluding an unknown program returns the full aggregate.
	all := n.ContentionExcluding("zzz")
	if !vecAlmostEqual(all, Vector{3, 3, 3, 3}, 1e-12) {
		t.Fatalf("ContentionExcluding(unknown) = %v", all)
	}
}

func TestNodeRefreshAfterDemandMutation(t *testing.T) {
	n := NewNode(0, DefaultCapacity())
	p := &fakeProgram{id: "a", demand: Vector{1, 1, 1, 1}}
	n.Host(p)
	p.demand = Vector{5, 5, 5, 5}
	// Aggregate is stale until Refresh.
	if vecAlmostEqual(n.Contention(), p.demand, 1e-12) {
		t.Fatal("aggregate unexpectedly tracked mutation without Refresh")
	}
	n.Refresh()
	if !vecAlmostEqual(n.Contention(), p.demand, 1e-12) {
		t.Fatalf("after Refresh contention = %v", n.Contention())
	}
}

func TestNodeUtilization(t *testing.T) {
	n := NewNode(0, Vector{10, 0, 100, 100})
	n.Host(&fakeProgram{id: "a", demand: Vector{5, 3, 250, 0}})
	if got := n.Utilization(Core); !almostEq(got, 0.5) {
		t.Errorf("core util = %v", got)
	}
	if got := n.Utilization(Cache); got != 0 {
		t.Errorf("unlimited resource util = %v, want 0", got)
	}
	if got := n.Utilization(DiskBW); got != 1 {
		t.Errorf("oversubscribed util = %v, want 1", got)
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestNodeProgramIDsSorted(t *testing.T) {
	n := NewNode(0, DefaultCapacity())
	for _, id := range []string{"c", "a", "b"} {
		n.Host(&fakeProgram{id: id})
	}
	ids := n.ProgramIDs()
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "b" || ids[2] != "c" {
		t.Fatalf("ids = %v", ids)
	}
}

func TestClusterNew(t *testing.T) {
	c := New(5, DefaultCapacity())
	if c.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	for i := 0; i < 5; i++ {
		if c.Node(i).ID != i {
			t.Fatalf("node %d has ID %d", i, c.Node(i).ID)
		}
	}
}

func TestClusterNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, DefaultCapacity())
}

func TestClusterNodeOutOfRangePanics(t *testing.T) {
	c := New(2, DefaultCapacity())
	defer func() {
		if recover() == nil {
			t.Fatal("Node(5) did not panic")
		}
	}()
	c.Node(5)
}

func TestClusterMove(t *testing.T) {
	c := New(3, DefaultCapacity())
	p := &fakeProgram{id: "x", demand: Vector{1, 0, 0, 0}}
	c.Node(0).Host(p)
	c.Move(p, 0, 2)
	if c.Node(0).Hosts("x") {
		t.Fatal("program still on source")
	}
	if !c.Node(2).Hosts("x") {
		t.Fatal("program not on destination")
	}
	if got := c.LocateProgram("x"); got != 2 {
		t.Fatalf("LocateProgram = %d", got)
	}
	// Move to same node is a no-op.
	c.Move(p, 2, 2)
	if !c.Node(2).Hosts("x") {
		t.Fatal("no-op move lost the program")
	}
}

func TestClusterMovePanicsWhenNotHosted(t *testing.T) {
	c := New(2, DefaultCapacity())
	p := &fakeProgram{id: "x"}
	defer func() {
		if recover() == nil {
			t.Fatal("Move of unhosted program did not panic")
		}
	}()
	c.Move(p, 0, 1)
}

func TestClusterContentions(t *testing.T) {
	c := New(2, DefaultCapacity())
	c.Node(1).Host(&fakeProgram{id: "a", demand: Vector{1, 2, 3, 4}})
	vs := c.Contentions()
	if len(vs) != 2 {
		t.Fatalf("len = %d", len(vs))
	}
	if !vs[0].IsZero() {
		t.Fatalf("node 0 contention = %v", vs[0])
	}
	if !vecAlmostEqual(vs[1], Vector{1, 2, 3, 4}, 1e-12) {
		t.Fatalf("node 1 contention = %v", vs[1])
	}
}

func TestClusterLocateProgramMissing(t *testing.T) {
	c := New(2, DefaultCapacity())
	if got := c.LocateProgram("nope"); got != -1 {
		t.Fatalf("LocateProgram(missing) = %d, want -1", got)
	}
}

func TestClusterRefresh(t *testing.T) {
	c := New(2, DefaultCapacity())
	p := &fakeProgram{id: "a", demand: Vector{1, 1, 1, 1}}
	c.Node(0).Host(p)
	p.demand = Vector{2, 2, 2, 2}
	c.Refresh()
	if !vecAlmostEqual(c.Node(0).Contention(), p.demand, 1e-12) {
		t.Fatalf("refresh did not recompute: %v", c.Node(0).Contention())
	}
}

func TestVectorString(t *testing.T) {
	s := Vector{1, 2, 3, 4}.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

// TestRefreshSumsInHostingOrder pins Refresh's summation order: float
// addition is not associative, so the aggregate must be the in-order sum
// of hosted programs' demands, not a random map-order sum. (A map-order
// Refresh once made same-seed simulations diverge by an ulp.)
func TestRefreshSumsInHostingOrder(t *testing.T) {
	// Magnitudes chosen so order changes the floating-point sum.
	demands := []float64{1e16, 1.5, -0, 3.25, 1e-3, 7e15, 2.125}
	var want Vector
	n := NewNode(0, Vector{}) // unlimited capacity: no clamping
	for i, d := range demands {
		p := &fakeProgram{id: fmt.Sprintf("p%d", i), demand: Vector{Core: d}}
		n.Host(p)
		want[Core] += d
	}
	for trial := 0; trial < 20; trial++ {
		n.Refresh()
		if got := n.RawDemand()[Core]; got != want[Core] {
			t.Fatalf("trial %d: Refresh sum = %.20g, want in-order %.20g", trial, got, want[Core])
		}
	}
	// Eviction must preserve the order of the remaining programs.
	n.Evict("p1")
	want[Core] = 0
	for i, d := range demands {
		if i == 1 {
			continue
		}
		want[Core] += d
	}
	n.Refresh()
	if got := n.RawDemand()[Core]; got != want[Core] {
		t.Fatalf("post-evict Refresh sum = %.20g, want %.20g", got, want[Core])
	}
}

func TestNodeFailRestore(t *testing.T) {
	cap := DefaultCapacity()
	n := NewNode(0, cap)
	n.Host(&fakeProgram{id: "p", demand: Vector{Core: 1}})
	if n.Failed() {
		t.Fatal("fresh node reports failed")
	}
	healthy := n.Contention()
	n.Fail()
	if !n.Failed() {
		t.Fatal("Fail did not mark the node")
	}
	if got := n.Contention(); got != cap {
		t.Fatalf("failed node contention = %v, want full capacity %v", got, cap)
	}
	if got := n.ContentionExcluding("p"); got != cap {
		t.Fatalf("failed node background = %v, want full capacity %v", got, cap)
	}
	if u := n.Utilization(Core); u != 1 {
		t.Fatalf("failed node core utilization = %v, want 1", u)
	}
	n.Restore()
	if n.Failed() {
		t.Fatal("Restore did not clear the failure")
	}
	if got := n.Contention(); got != healthy {
		t.Fatalf("restored contention = %v, want pre-failure %v", got, healthy)
	}
}

func TestClusterFailedNodes(t *testing.T) {
	c := New(4, DefaultCapacity())
	if c.FailedNodes() != 0 {
		t.Fatalf("fresh cluster failed nodes = %d", c.FailedNodes())
	}
	c.Node(1).Fail()
	c.Node(3).Fail()
	if c.FailedNodes() != 2 {
		t.Fatalf("failed nodes = %d, want 2", c.FailedNodes())
	}
	c.Node(1).Restore()
	if c.FailedNodes() != 1 {
		t.Fatalf("after restore failed nodes = %d, want 1", c.FailedNodes())
	}
}

// TestNodeVersionAdvancesOnEveryMutation pins the contract the service's
// contention memo relies on: each of the five mutators moves Version, and
// reads leave it alone.
func TestNodeVersionAdvancesOnEveryMutation(t *testing.T) {
	n := NewNode(0, DefaultCapacity())
	p := &fakeProgram{id: "a", demand: Vector{1, 2, 3, 4}}
	for _, step := range []struct {
		name   string
		mutate func()
	}{
		{"Host", func() { n.Host(p) }},
		{"Refresh", n.Refresh},
		{"Fail", n.Fail},
		{"Restore", n.Restore},
		{"Evict", func() { n.Evict("a") }},
	} {
		v := n.Version()
		step.mutate()
		if n.Version() == v {
			t.Errorf("%s left Version at %d", step.name, v)
		}
	}
	v := n.Version()
	n.Contention()
	n.ContentionExcluding("a")
	n.Utilization(Core)
	n.Evict("absent")
	if n.Version() != v {
		t.Errorf("reads or a no-op Evict moved Version from %d to %d", v, n.Version())
	}
}
