package cluster

import (
	"fmt"
	"sort"
)

// Program is anything that occupies resources on a node: a service
// component's VM or a batch job's VM. The node tracks each program's demand
// vector and exposes the aggregate as the node's contention state.
type Program interface {
	// ProgramID returns a unique identifier for the program.
	ProgramID() string
	// Demand returns the program's current resource demand vector.
	Demand() Vector
}

// Node is a physical machine hosting programs that share its resources.
type Node struct {
	ID       int
	Name     string
	Capacity Vector // saturation point per resource; zero entries = unlimited

	programs map[string]Program
	// failed marks a node that has gone dark: its observable contention
	// pins to full capacity, so everything hosted there runs at the
	// interference law's saturation multiplier until Restore. This is a
	// fail-slow model — requests on a failed node crawl rather than
	// vanish — which keeps failures inside the contention framework the
	// monitor, predictor and scheduler already understand.
	failed bool
	// order keeps hosted programs in arrival order. Refresh must sum
	// demands in a deterministic order: float addition is not
	// associative, so iterating the map directly would let Go's random
	// map order perturb the aggregate by an ulp from run to run —
	// breaking the simulator's bit-for-bit reproducibility per seed.
	order []Program
	// cached aggregate demand; maintained incrementally where possible
	// and recomputed on Refresh.
	aggregate Vector
	// version counts mutations of what the contention reads observe: the
	// hosted set, the aggregate and the failed flag (see Version).
	version uint64
}

// NewNode creates a node with the given identifier and resource capacities.
func NewNode(id int, capacity Vector) *Node {
	return &Node{
		ID:       id,
		Name:     fmt.Sprintf("n%d", id),
		Capacity: capacity,
		programs: make(map[string]Program),
	}
}

// Host places a program on the node. It panics if a program with the same
// ID is already hosted: double-placement is a scheduling bug.
func (n *Node) Host(p Program) {
	id := p.ProgramID()
	if _, ok := n.programs[id]; ok {
		panic(fmt.Sprintf("cluster: program %q already hosted on %s", id, n.Name))
	}
	n.programs[id] = p
	n.order = append(n.order, p)
	n.aggregate = n.aggregate.Add(p.Demand())
	n.version++
}

// Evict removes a program from the node. It reports whether the program was
// present.
func (n *Node) Evict(id string) bool {
	p, ok := n.programs[id]
	if !ok {
		return false
	}
	delete(n.programs, id)
	for i, q := range n.order {
		if q.ProgramID() == id {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
	n.aggregate = n.aggregate.Sub(p.Demand())
	n.version++
	return true
}

// Hosts reports whether the node currently hosts the program.
func (n *Node) Hosts(id string) bool {
	_, ok := n.programs[id]
	return ok
}

// NumPrograms reports the number of hosted programs.
func (n *Node) NumPrograms() int { return len(n.programs) }

// ProgramIDs returns the hosted program IDs in sorted order (for
// deterministic iteration).
func (n *Node) ProgramIDs() []string {
	ids := make([]string, 0, len(n.programs))
	for id := range n.programs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Refresh recomputes the aggregate demand from scratch. Call it after
// programs mutate their demand vectors in place (e.g. a batch job entering
// a new phase); hosting and eviction keep the aggregate current on their
// own.
func (n *Node) Refresh() {
	var agg Vector
	for _, p := range n.order {
		agg = agg.Add(p.Demand())
	}
	n.aggregate = agg
	n.version++
}

// Fail marks the node failed: Contention, ContentionExcluding and
// Utilization report full saturation until Restore, so hosted programs
// experience the worst-case interference and the monitor sees a node it
// should route and migrate away from. Failing an already failed node is a
// no-op.
func (n *Node) Fail() {
	n.failed = true
	n.version++
}

// Restore clears a failure; observable contention reverts to the hosted
// programs' aggregate demand.
func (n *Node) Restore() {
	n.failed = false
	n.version++
}

// Version returns the node's mutation counter. Host, Evict, Refresh, Fail
// and Restore each advance it, and they are the only mutators of the
// hosted set, the aggregate and the failed flag: everything a contention
// read depends on besides the excluded program's own demand. A caller
// that holds that demand fixed between Refreshes may memoise
// ContentionExcluding keyed by (node, Version).
func (n *Node) Version() uint64 { return n.version }

// Failed reports whether the node is currently failed.
func (n *Node) Failed() bool { return n.failed }

// Contention returns the node's current aggregate contention vector,
// saturated at the node's capacity. This is what the paper's monitors
// observe via /proc and hardware counters. A failed node reports full
// capacity on every bounded resource.
func (n *Node) Contention() Vector {
	if n.failed {
		return n.Capacity
	}
	return n.aggregate.Clamp(n.Capacity)
}

// RawDemand returns the unsaturated aggregate demand (useful for detecting
// oversubscription).
func (n *Node) RawDemand() Vector { return n.aggregate }

// ContentionExcluding returns the node's contention with one program's
// demand removed — the "background" a component would see around itself.
// On a failed node the background is saturation regardless of who asks.
func (n *Node) ContentionExcluding(id string) Vector {
	if n.failed {
		return n.Capacity
	}
	agg := n.aggregate
	if p, ok := n.programs[id]; ok {
		agg = agg.Sub(p.Demand())
	}
	return agg.Clamp(n.Capacity)
}

// Utilization returns contention normalised by capacity for resource r in
// [0, 1]; unlimited resources report 0.
func (n *Node) Utilization(r Resource) float64 {
	if n.Capacity[r] <= 0 {
		return 0
	}
	u := n.Contention()[r] / n.Capacity[r]
	if u > 1 {
		u = 1
	}
	return u
}
