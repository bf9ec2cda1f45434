package service

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/xrand"
)

// ExecState tracks one execution of a sub-request on one instance.
type ExecState int

const (
	// ExecQueued means the execution is waiting in the instance's queue.
	ExecQueued ExecState = iota
	// ExecRunning means the execution occupies the instance's server.
	ExecRunning
	// ExecCancelled means a cancellation message removed the execution
	// from the queue before it started (redundancy policies).
	ExecCancelled
	// ExecDone means the execution finished service.
	ExecDone
)

// Execution is one attempt to run a sub-request on a specific instance.
// Redundancy policies create several executions per sub-request; the first
// to finish wins. An execution that has started service always runs to
// completion and occupies the server even if a sibling already won — that
// wasted work is the redundancy cost the paper's Fig. 6 exposes.
type Execution struct {
	Sub     *SubRequest
	Inst    *Instance
	State   ExecState
	StartAt float64

	// service is the service time drawn when the execution started; the
	// finish event credits it to the instance's busy time.
	service float64
}

// An execution is the record behind every event of its life, so none of
// them allocates: each kind below is the same *Execution viewed as a
// different sim.Handler. Sequential runs use only execFinish; laned runs
// use all of them.
type (
	// execFinish: the instance's server completes the execution.
	execFinish Execution
	// execArrive: a laned dispatch reaches the instance.
	execArrive Execution
	// execStarted: a laned start notice reaches the root class.
	execStarted Execution
	// execCompleted: a laned completion notice reaches the root class.
	execCompleted Execution
	// execCancel: a cancellation message reaches the instance.
	execCancel Execution
	// execCancelled: a laned cancellation notice reaches the root class.
	execCancelled Execution
)

func (f *execFinish) Fire(now float64) { f.Inst.finish((*Execution)(f), now) }

func (a *execArrive) Fire(now float64) { a.Inst.enqueue((*Execution)(a), now) }

func (s *execStarted) Fire(now float64) {
	e := (*Execution)(s)
	e.Sub.onStartLaned(e, now)
}

func (c *execCompleted) Fire(now float64) {
	c.Inst.rootOutstanding--
	c.Sub.onComplete(now)
}

func (c *execCancel) Fire(now float64) { c.Inst.cancelQueued((*Execution)(c), now) }

func (c *execCancelled) Fire(float64) { c.Inst.rootOutstanding-- }

// Component is one logical component of the service (paper's c_i): a row of
// the performance matrix. It has one instance under Basic/PCS and several
// replicas under redundancy/reissue policies; closed-loop autoscaling can
// grow Instances further mid-run (see Service.SetActiveReplicas).
type Component struct {
	Stage        int // stage index in the topology
	IndexInStage int
	Global       int // dense index across all components (matrix row)
	Spec         StageSpec
	Instances    []*Instance

	// homeNode is the node the primary was originally placed on; replica r
	// is always placed at (homeNode + r) mod nodes, whether it was created
	// at deployment or conjured later by scale-up, so placement is a pure
	// function of the topology — never of when (or whether) scaling ran.
	homeNode int
}

// Primary returns the component's first (primary) instance.
func (c *Component) Primary() *Instance { return c.Instances[0] }

// ActiveInstances returns the instances dispatch may currently use: the
// first ActiveReplicas of Instances. Parked instances (beyond the active
// count after a scale-down) keep serving whatever they already queued but
// receive no new work.
func (c *Component) ActiveInstances() []*Instance {
	n := c.Instances[0].svc.activeReplicas
	if n > len(c.Instances) {
		n = len(c.Instances)
	}
	return c.Instances[:n]
}

// Instance is one deployed replica of a component: a single-server FIFO
// queue pinned to a node, contributing its VM footprint to that node's
// contention. It implements cluster.Program.
type Instance struct {
	Comp    *Component
	Replica int
	id      string

	svc    *Service
	nodeID int

	busy bool
	// queue[head:] are the waiting executions. Popping advances head and
	// an emptied queue rewinds to the start of the same backing array, so
	// a steady-state queue never reallocates.
	queue     []*Execution
	head      int
	migrating bool

	// mult memoises the law's multiplier at the instance's background
	// contention (ContentionExcluding(id) on its node), keyed by that
	// node and its version. A node's version advances on every mutation
	// of its aggregate or failed flag, and the instance's own demand only
	// changes in demandTick, which refreshes every node right after — so
	// a matching key means a fresh read would return the same contention,
	// and the same multiplier, bit for bit. The memo is instance-owned,
	// so laned runs touch it only from the instance's own class.
	mult        float64
	multNode    *cluster.Node
	multVersion uint64
	// muMean and mu memoise the lognormal μ of the last service-time mean
	// drawn around, xrand.LogNormalMu(muMean, σ) with the law's fixed σ:
	// between the events that move the multiplier, every draw reuses it.
	// muMean starts NaN, equal to no mean, so a mean ≤ 0 still reaches
	// LogNormalMu's panic; once set it is positive, where == compares
	// bits. Instance-owned, like mult.
	muMean, mu float64

	// rng is the instance's private service-time stream in laned mode
	// (created lazily from the service's laneSeed and the instance's
	// affinity class); sequential mode draws from the shared svc.rng.
	rng *xrand.Source
	// rootOutstanding is the root class's ledger of executions sent to
	// this instance and not yet heard back about (completed or cancelled).
	// Only root-class events touch it; PickInstance reads it as the laned
	// load signal.
	rootOutstanding int

	// Served counts completed executions (including losers); Cancelled
	// counts executions removed from the queue by cancellation messages.
	Served    int
	Cancelled int
	// BusyTime accumulates seconds of server occupancy, for utilisation
	// accounting.
	BusyTime float64

	// Utilisation tracking: the instance's resource demand scales with how
	// busy its server is, so redundant executions consume real shared
	// resources on the node (the mechanism behind the paper's finding that
	// request redundancy deteriorates under heavy load). demandScale is
	// refreshed once per demand-tick from an EWMA of the busy fraction.
	lastTickAt   float64
	lastBusyTime float64
	utilEWMA     float64
	demandScale  float64
}

// ProgramID implements cluster.Program.
func (in *Instance) ProgramID() string { return in.id }

// classID returns the instance's affinity class: 1 + replica×components +
// global component index. The root class is 0; every instance — including
// ones autoscaling conjures mid-run — gets a stable class that is a pure
// function of the topology, never of lane count or creation time (the
// component list is final before the first event runs; scaling only adds
// replicas).
func (in *Instance) classID() int {
	return 1 + in.Replica*len(in.svc.components) + in.Comp.Global
}

// serviceRNG returns the stream service-time draws come from: the shared
// service stream in sequential mode, the instance's private pre-seeded
// stream in laned mode. The private stream's seed depends only on the
// run's lane seed and the instance's class, so the draw sequence each
// instance sees is identical at any lane count.
func (in *Instance) serviceRNG() *xrand.Source {
	if in.svc.lanes == nil {
		return in.svc.rng
	}
	if in.rng == nil {
		in.rng = xrand.New(xrand.StreamSeed(in.svc.laneSeed, in.classID()+1))
	}
	return in.rng
}

// Demand implements cluster.Program: the stage's nominal VM demand scaled
// by the instance's recent server utilisation (plus a small idle floor for
// the VM's background footprint). An idle replica costs almost nothing; a
// saturated instance exerts the stage's full demand on its node.
func (in *Instance) Demand() cluster.Vector {
	scale := in.demandScale
	if scale <= 0 {
		scale = idleDemandFraction
	}
	d := in.Comp.Spec.Demand.Scale(scale)
	if in.Replica > 0 {
		d = d.Scale(in.svc.cfg.ReplicaFootprintScale)
	}
	return d
}

// idleDemandFraction is the demand floor of an idle instance (VM background
// activity).
const idleDemandFraction = 0.05

// Utilization returns the EWMA busy fraction of the instance's server.
func (in *Instance) Utilization() float64 { return in.utilEWMA }

// demandTick refreshes the utilisation EWMA and demand scale from the busy
// time accumulated since the previous tick. The service calls it for every
// instance once per demand period and then refreshes node aggregates.
func (in *Instance) demandTick(now float64) {
	dt := now - in.lastTickAt
	if dt <= 0 {
		return
	}
	// BusyTime is credited at execution completion; executions are
	// millisecond-scale against a one-second tick, so the truncation at
	// the tick boundary is negligible.
	busy := in.BusyTime
	util := (busy - in.lastBusyTime) / dt
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	const alpha = 0.5
	in.utilEWMA = alpha*util + (1-alpha)*in.utilEWMA
	in.lastTickAt = now
	in.lastBusyTime = busy
	in.demandScale = idleDemandFraction + (1-idleDemandFraction)*in.utilEWMA
}

// NodeID returns the instance's current node.
func (in *Instance) NodeID() int { return in.nodeID }

// QueueLen returns the number of waiting executions (excluding the one in
// service), counting cancelled-but-unswept entries.
func (in *Instance) QueueLen() int { return len(in.queue) - in.head }

// Busy reports whether the server is occupied.
func (in *Instance) Busy() bool { return in.busy }

// enqueue admits an execution at virtual time now; if the server is idle
// it starts immediately.
func (in *Instance) enqueue(e *Execution, now float64) {
	if !in.busy {
		in.start(e, now)
		return
	}
	e.State = ExecQueued
	if len(in.queue) == cap(in.queue) && in.head >= len(in.queue)/2 {
		// At least half the array is popped slots: slide the waiting
		// executions to the front instead of growing.
		n := copy(in.queue, in.queue[in.head:])
		clear(in.queue[n:])
		in.queue, in.head = in.queue[:n], 0
	}
	in.queue = append(in.queue, e)
}

// multiplier returns the law's contention multiplier for the background
// the instance experiences — everything on its node except itself —
// memoised per node version.
func (in *Instance) multiplier() float64 {
	node := in.svc.cluster.Node(in.nodeID)
	if v := node.Version(); node != in.multNode || v != in.multVersion {
		in.mult = in.svc.law.Multiplier(node.ContentionExcluding(in.id))
		in.multNode, in.multVersion = node, v
	}
	return in.mult
}

// drawServiceTime is the package's drawServiceTime(mean, σ, stream) on the
// instance's stream, bit for bit, with the lognormal μ memoised.
func (in *Instance) drawServiceTime(mean float64) float64 {
	sigma := in.svc.law.NoiseSigma
	if sigma <= 0 {
		return in.serviceRNG().Exp(mean)
	}
	if mean != in.muMean {
		in.mu, in.muMean = xrand.LogNormalMu(mean, sigma), mean
	}
	return in.serviceRNG().LogNormal(in.mu, sigma)
}

// start begins service for e at virtual time now. The service time is
// drawn from the ground-truth law using the background contention the
// instance currently experiences (everything on the node except itself —
// a read of node aggregates that only change at engine events), through
// the instance's multiplier memo.
func (in *Instance) start(e *Execution, now float64) {
	in.busy = true
	e.State = ExecRunning
	e.StartAt = now

	// The work factor scales the nominal per-request work (brownout
	// degradation); the draw itself consumes the same stream position
	// either way, so toggling brownout never renumbers later draws.
	// Storage nodes override the stage nominal with the per-operation
	// work drawn at dispatch (an immutable sub-request field, read with
	// the immutable plan, so safe from the instance's class).
	base := in.Comp.Spec.BaseServiceTime
	if op := e.Sub.op; op != noStorageOp {
		if o := in.svc.graph.Nodes[in.Comp.Stage].Storage.work(op); o > 0 {
			base = o
		}
	}
	base *= in.svc.workFactor
	e.service = in.drawServiceTime(base * in.multiplier())

	if in.svc.lanes == nil {
		e.Sub.onStart(now)
		in.svc.engine.Schedule(now+e.service, (*execFinish)(e))
		return
	}
	cls := in.classID()
	if e.Sub.cancelOnStart() > 0 {
		// The start notice reaches the root class one transit delay
		// late; the root relays cancellations timed from the true start
		// (see SubRequest.onStartLaned).
		in.svc.lanes.Schedule(cls, rootClass, now+LaneTransitDelay, (*execStarted)(e))
	}
	in.svc.lanes.Schedule(cls, cls, now+e.service, (*execFinish)(e))
}

// finish retires a completed execution and pulls the next one from the
// queue. In laned mode the completion notice travels back to the root
// class (first-completion arbitration, stage advancement, the
// outstanding-work ledger) one transit delay later; the server itself
// moves on immediately.
func (in *Instance) finish(e *Execution, endNow float64) {
	e.State = ExecDone
	in.Served++
	in.BusyTime += e.service
	if in.svc.lanes != nil {
		in.svc.lanes.Schedule(in.classID(), rootClass, endNow+LaneTransitDelay, (*execCompleted)(e))
	} else {
		e.Sub.onComplete(endNow)
	}
	in.next(endNow)
}

// next pops the queue, skipping cancelled executions, and either starts the
// next execution or idles.
func (in *Instance) next(now float64) {
	for in.head < len(in.queue) {
		e := in.queue[in.head]
		in.queue[in.head] = nil
		if in.head++; in.head == len(in.queue) {
			in.queue, in.head = in.queue[:0], 0
		}
		if e.State != ExecCancelled {
			in.start(e, now)
			return
		}
	}
	in.busy = false
}

// cancelQueued marks a queued execution cancelled so the server skips it.
// Running or finished executions are unaffected (cancellation messages
// cannot claw back started work — paper §VI-C's imperfect-cancellation
// discussion). In laned mode the instance reports the cancellation back
// to the root class so the outstanding-work ledger stays balanced: every
// issued execution is answered exactly once, by a completion or a
// cancellation notice.
func (in *Instance) cancelQueued(e *Execution, now float64) {
	if e.State == ExecQueued {
		e.State = ExecCancelled
		in.Cancelled++
		if in.svc.lanes != nil {
			in.svc.lanes.Schedule(in.classID(), rootClass, now+LaneTransitDelay, (*execCancelled)(e))
		}
	}
}

// MigrateTo relocates the instance to node dst after delay seconds of
// virtual time, modelling the Storm/ZooKeeper redeployment the paper
// describes (≤3 s, no service interruption). The instance keeps serving
// from its old node until the migration lands. Overlapping migrations are
// rejected (the scheduler removes migrated components from its candidate
// set within an interval, so this only guards against misuse).
func (in *Instance) MigrateTo(dst int, delay float64) error {
	if in.migrating {
		return fmt.Errorf("service: instance %s is already migrating", in.id)
	}
	if dst == in.nodeID {
		return nil
	}
	if delay < 0 {
		return fmt.Errorf("service: negative migration delay")
	}
	in.migrating = true
	in.svc.engine.After(delay, func(float64) {
		in.svc.cluster.Move(in, in.nodeID, dst)
		in.nodeID = dst
		in.migrating = false
		in.svc.migrations++
	})
	return nil
}
