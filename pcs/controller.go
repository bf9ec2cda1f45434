package pcs

import (
	"fmt"
	"math"
)

// Controller steers a running Simulation at scheduled virtual times: change
// the arrival rate, fail and restore nodes, swap the execution technique.
// Every method schedules a deterministic action on the simulation's own
// event queue, so a steered run is exactly as reproducible as an unsteered
// one — same RunSpec, same schedule, same seed ⇒ bit-identical Result, for
// any way of slicing the run.
//
// Actions registered at the same virtual time fire in registration order
// (the engine's FIFO tie-break). Scheduling into the past is an error:
// steering cannot rewrite history.
//
// Scenario-scripted steering (scenario.Steering — the node-failure and
// diurnal-load scenarios) goes through this same API when the world is
// built; Controller simply exposes it to callers who want to write their
// own schedules.
type Controller struct {
	sim *Simulation
}

// Controller returns the simulation's steering interface.
func (s *Simulation) Controller() *Controller { return &Controller{sim: s} }

// at validates an absolute virtual action time.
func (c *Controller) at(t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("pcs: steering time must be finite")
	}
	if now := c.sim.engine.Now(); t < now {
		return fmt.Errorf("pcs: steering time %.3f is before now %.3f", t, now)
	}
	return nil
}

// node validates a node index against the simulation's cluster.
func (c *Controller) node(id int) error {
	if id < 0 || id >= c.sim.cluster.NumNodes() {
		return fmt.Errorf("pcs: node %d out of range [0, %d)", id, c.sim.cluster.NumNodes())
	}
	return nil
}

// FailNodeAt fails a node at virtual time t. The failure model is
// fail-slow: the node's observable contention pins to full capacity, so
// every component instance and batch job hosted there runs at the
// interference law's saturation multiplier, queues grow, and the monitor
// sees a node worth migrating away from. Requests are not dropped.
func (c *Controller) FailNodeAt(t float64, node int) error {
	if err := c.at(t); err != nil {
		return err
	}
	if err := c.node(node); err != nil {
		return err
	}
	cl := c.sim.cluster
	c.sim.engine.At(t, func(float64) { cl.Node(node).Fail() })
	return nil
}

// RestoreNodeAt restores a failed node at virtual time t. Restoring a
// healthy node is a no-op.
func (c *Controller) RestoreNodeAt(t float64, node int) error {
	if err := c.at(t); err != nil {
		return err
	}
	if err := c.node(node); err != nil {
		return err
	}
	cl := c.sim.cluster
	c.sim.engine.At(t, func(float64) { cl.Node(node).Restore() })
	return nil
}

// SetArrivalRateAt changes the arrival rate λ at virtual time t. The change
// takes effect after the next already-scheduled arrival (one interarrival
// draw is always in flight).
func (c *Controller) SetArrivalRateAt(t, rate float64) error {
	if err := c.at(t); err != nil {
		return err
	}
	if rate <= 0 {
		return fmt.Errorf("pcs: arrival rate must be positive, got %g", rate)
	}
	svc := c.sim.svc
	c.sim.engine.At(t, func(float64) { svc.SetArrivalRate(rate) })
	return nil
}

// ModulateArrivalRate modulates λ sinusoidally around the configured base
// rate from now on: λ(t) = base·(1 + amplitude·sin(2πt/period)), applied as
// steps discrete rate updates per period (steps == 0 selects 32). Amplitude
// must be in (0, 1) so λ stays positive. The modulation runs for the rest
// of the simulation; it is what the diurnal-load scenario registers.
func (c *Controller) ModulateArrivalRate(period, amplitude float64, steps int) error {
	if period <= 0 {
		return fmt.Errorf("pcs: modulation period must be positive, got %g", period)
	}
	if amplitude <= 0 || amplitude >= 1 {
		return fmt.Errorf("pcs: modulation amplitude %g outside (0, 1)", amplitude)
	}
	if steps < 0 {
		return fmt.Errorf("pcs: negative modulation steps")
	}
	if steps == 0 {
		steps = 32
	}
	base := c.sim.opts.ArrivalRate
	svc := c.sim.svc
	c.sim.engine.Every(period/float64(steps), func(now float64) {
		svc.SetArrivalRate(base * (1 + amplitude*math.Sin(2*math.Pi*now/period)))
	})
	return nil
}

// SetReplicasAt scales the deployment at virtual time t: from then on,
// dispatch spreads new work over the first n replicas of every component.
// Scaling up places any missing instances at their deterministic
// deployment positions ((home node + replica) mod cluster size); scaling
// down parks the surplus — parked replicas drain what they already queued,
// then idle at the VM background footprint until a later scale-up
// reactivates them. Validation is synchronous: n must be at least 1, at
// least the current dispatch policy's replica need (a RED-3 world cannot
// drop below 3), and at most the cluster size (a component's replicas
// never share a node). If a later-registered action invalidates the scale
// before it fires (a technique swap demanding more replicas), the scale
// is dropped at fire time rather than corrupting the deployment.
func (c *Controller) SetReplicasAt(t float64, n int) error {
	if err := c.at(t); err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("pcs: active replicas must be at least 1, got %d", n)
	}
	if k := c.sim.cluster.NumNodes(); n > k {
		return fmt.Errorf("pcs: %d replicas exceed cluster capacity (%d nodes)", n, k)
	}
	if r := c.sim.svc.Policy().Replicas(); n < r {
		return fmt.Errorf("pcs: dispatch policy %s needs %d replicas, cannot scale to %d",
			c.sim.svc.Policy().Name(), r, n)
	}
	svc := c.sim.svc
	c.sim.engine.At(t, func(float64) { _ = svc.SetActiveReplicas(n) })
	return nil
}

// SetWorkFactorAt sets the brownout actuator at virtual time t: executions
// started after t draw their service time from base·f instead of the
// stage's full nominal work. f is a fidelity fraction in (0, 1]; 1
// restores full service.
func (c *Controller) SetWorkFactorAt(t, f float64) error {
	if err := c.at(t); err != nil {
		return err
	}
	if f <= 0 || f > 1 {
		return fmt.Errorf("pcs: work factor must be in (0, 1], got %g", f)
	}
	svc := c.sim.svc
	c.sim.engine.At(t, func(float64) { _ = svc.SetWorkFactor(f) })
	return nil
}

// SetAdmissionFactorAt sets the admission throttle at virtual time t:
// from then on the arrival process runs at offered λ × f. f is a fraction
// in (0, 1]; 1 admits everything. Because the throttle multiplies the
// offered rate, it composes with SetArrivalRateAt steps and diurnal
// modulation instead of overwriting their schedule.
func (c *Controller) SetAdmissionFactorAt(t, f float64) error {
	if err := c.at(t); err != nil {
		return err
	}
	if f <= 0 || f > 1 {
		return fmt.Errorf("pcs: admission factor must be in (0, 1], got %g", f)
	}
	svc := c.sim.svc
	c.sim.engine.At(t, func(float64) { _ = svc.SetAdmissionFactor(f) })
	return nil
}

// SetTechniqueAt swaps the execution technique's dispatch policy at virtual
// time t. Sub-requests already in flight finish under the old policy; new
// dispatches use the new one. The swap is validated now against the
// currently active replica count: the new technique may not need more
// replicas than are active (RED-3 needs 3, reissue 2, Basic/PCS 1 — a
// Basic world cannot become RED-3 mid-run unless SetReplicasAt scaled it
// up first, and a RED-3 world can always fall back to Basic). As with
// SetReplicasAt, if a later-registered action invalidates the swap
// before it fires — a scale-down below the new technique's need — the
// swap is dropped at fire time rather than corrupting the deployment.
//
// Swapping to PCS selects the Basic dispatch policy, exactly as a PCS run
// does; it does not conjure a trained scheduler — only a simulation built
// with RunSpec.Technique == PCS has one, and that scheduler keeps running
// across swaps. Result.Technique continues to report the configured
// technique, not the swap history.
func (c *Controller) SetTechniqueAt(t float64, tech Technique) error {
	if err := c.at(t); err != nil {
		return err
	}
	policy, err := policyFor(tech, c.sim.opts.CancelDelaySeconds)
	if err != nil {
		return err
	}
	if r := policy.Replicas(); r > c.sim.svc.ActiveReplicas() {
		return fmt.Errorf("pcs: cannot swap to %s at t=%.3f: needs %d replicas, deployment has %d active",
			tech, t, r, c.sim.svc.ActiveReplicas())
	}
	svc := c.sim.svc
	c.sim.engine.At(t, func(float64) { _ = svc.SetPolicy(policy) })
	return nil
}
