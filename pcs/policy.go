package pcs

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/scenario"
)

// PolicyAction is one actuation a closed-loop policy applied to a running
// simulation: when it fired, which verb, its numeric argument, and the
// policy's stated reason. The live dashboard annotates the run with these
// and the experiment driver reports their counts.
type PolicyAction struct {
	// T is the virtual time the action was applied.
	T float64 `json:"t"`
	// Kind is the actuation verb ("set-replicas", "set-work-factor",
	// "set-admission-factor").
	Kind string `json:"kind"`
	// Value is the verb's numeric argument (target replicas, work factor,
	// or admission factor).
	Value float64 `json:"value"`
	// Reason is the policy's explanation of the decision.
	Reason string `json:"reason"`
}

// PolicyName reports the name of the closed-loop policy driving this run,
// "" when none is in play.
func (s *Simulation) PolicyName() string {
	if s.pol == nil {
		return ""
	}
	return s.pol.Name()
}

// PolicyLog returns the actions the run's policy has applied so far, in
// application order. The returned slice is the simulation's own log:
// observe it, don't mutate it.
func (s *Simulation) PolicyLog() []PolicyAction { return s.policyLog }

// resolvePolicy turns the run's policy selection into a fresh policy
// instance: RunSpec.Policy names a registered policy ("none" disables,
// empty defers to the scenario), and the scenario may script a spec of its
// own. Every simulation builds its own instance — policies are stateful,
// and sharing one across replications would break replay determinism.
func resolvePolicy(name string, sc scenario.Scenario) (policy.Policy, error) {
	spec := sc.Policy
	if name != "" {
		named, ok, err := policy.Get(name)
		if err != nil {
			return nil, fmt.Errorf("pcs: %w", err)
		}
		if !ok { // explicit "none" overrides the scenario's script
			return nil, nil
		}
		spec = &named
	}
	if spec == nil {
		return nil, nil
	}
	pol, err := spec.New()
	if err != nil {
		return nil, fmt.Errorf("pcs: %w", err)
	}
	return pol, nil
}

// startPolicy schedules the policy evaluation ticker. Evaluation is an
// ordinary engine event at a fixed cadence, so decisions bind at fixed
// virtual times regardless of how the caller slices the run — a policy-on
// run inherits the engine's slicing invariance instead of depending on
// when observers happen to look (the sampling path stays purely
// observational).
func (s *Simulation) startPolicy() {
	if s.pol == nil {
		return
	}
	s.engine.Every(s.opts.PolicyInterval, s.evalPolicy)
}

// evalPolicy is one closed-loop evaluation: freeze an Observation from the
// current snapshot, let the policy decide, apply its actions immediately
// (the decision time is the binding time), and log what was applied.
// Actions the actuators reject — a scale conflicting with the current
// dispatch policy, a rate on a world whose arrivals ended — are dropped,
// not fatal: a policy is advisory, the actuation surface owns validity.
func (s *Simulation) evalPolicy(now float64) {
	snap := s.Snapshot()
	obs := policy.Observation{
		Now:                 snap.Now,
		Horizon:             snap.Horizon,
		ArrivalRate:         snap.AdmittedRate,
		OfferedArrivalRate:  s.svc.OfferedArrivalRate(),
		BaseArrivalRate:     s.opts.ArrivalRate,
		AdmissionFactor:     s.svc.AdmissionFactor(),
		AdmissionDrops:      snap.AdmissionDrops,
		Arrivals:            snap.Arrivals,
		Completed:           snap.Completed,
		InFlight:            snap.InFlight,
		QueuedExecutions:    snap.QueuedExecutions,
		BusyInstances:       snap.BusyInstances,
		ActiveInstances:     s.svc.ActiveInstanceCount(),
		MeanCoreUtilization: snap.MeanCoreUtilization,
		MaxCoreUtilization:  snap.MaxCoreUtilization,
		FailedNodes:         snap.FailedNodes,
		AvgOverallMs:        snap.AvgOverallMs,
		P99ComponentMs:      snap.P99ComponentMs,
		ActiveReplicas:      snap.ActiveReplicas,
		MinReplicas:         s.svc.Policy().Replicas(),
		MaxReplicas:         s.cluster.NumNodes(),
		// Basic/PCS dispatch (replica need 1) picks the least-loaded
		// active replica; redundancy/reissue fan to a fixed set, so
		// scaling cannot move load for them.
		DispatchSpreads: s.svc.Policy().Replicas() == 1,
		WorkFactor:      snap.WorkFactor,
	}
	for _, a := range s.pol.Decide(obs) {
		var err error
		switch a.Kind {
		case policy.SetReplicas:
			err = s.svc.SetActiveReplicas(a.Replicas)
		case policy.SetWorkFactor:
			err = s.svc.SetWorkFactor(a.WorkFactor)
		case policy.SetAdmissionFactor:
			err = s.svc.SetAdmissionFactor(a.AdmissionFactor)
		default:
			continue
		}
		if err != nil {
			continue
		}
		s.policyLog = append(s.policyLog, PolicyAction{
			T: now, Kind: a.Kind.String(), Value: a.Value(), Reason: a.Reason,
		})
	}
}
