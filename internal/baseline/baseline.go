// Package baseline implements the execution policies the paper compares
// against PCS (§VI-A):
//
//   - Basic: one execution per sub-request, no redundancy (also the policy
//     PCS runs under — PCS adds scheduling, not redundancy).
//   - RED-k (request redundancy): every sub-request executes on k replicas,
//     the quickest wins, and cancellation messages retire queued siblings
//     once one replica starts — imperfectly, because the messages take a
//     network delay to land.
//   - RI-p (request reissue): a sub-request goes to its primary replica; if
//     it has not completed after the p-th percentile of the expected
//     latency for its class, one backup replica is issued and the quickest
//     wins.
package baseline

import (
	"fmt"

	"repro/internal/service"
)

// Basic is the no-redundancy policy.
type Basic struct{}

// Name implements service.Policy.
func (Basic) Name() string { return "Basic" }

// Replicas implements service.Policy.
func (Basic) Replicas() int { return 1 }

// Dispatch sends the sub-request to the component's primary instance —
// or, when closed-loop autoscaling has activated extra replicas, to the
// least-loaded active instance (a deterministic choice; with one active
// replica it is exactly the primary, the historical behavior).
func (Basic) Dispatch(svc *service.Service, sub *service.SubRequest, now float64) {
	sub.IssueTo(svc.PickInstance(sub.Comp), now)
}

// Redundancy is the RED-k policy of [27], [11], [26]: create k replicas of
// every request, use the quickest, cancel the rest on first start.
type Redundancy struct {
	// K is the number of replicas per sub-request (3 and 5 in the paper).
	K int
	// CancelDelay is the network delay before a cancellation message takes
	// effect. Replicas that start service within this window of each other
	// all run to completion.
	CancelDelay float64

	// hooks carries CancelDelay to every dispatched sub-request: one
	// record per policy value, rebuilt only if CancelDelay changes, so
	// sub-requests already in flight keep the delay they were sent with.
	hooks *service.Hooks
}

// NewRedundancy returns a RED-k policy with the given replica count and
// cancellation-message delay in seconds.
func NewRedundancy(k int, cancelDelay float64) *Redundancy {
	if k < 2 {
		panic("baseline: redundancy needs k >= 2")
	}
	if cancelDelay < 0 {
		panic("baseline: negative cancel delay")
	}
	return &Redundancy{K: k, CancelDelay: cancelDelay}
}

// Name implements service.Policy.
func (p *Redundancy) Name() string { return fmt.Sprintf("RED-%d", p.K) }

// Replicas implements service.Policy.
func (p *Redundancy) Replicas() int { return p.K }

// Dispatch fans the sub-request out to K replicas simultaneously with
// cancel-on-start semantics: the first K active instances, which is every
// deployed replica unless autoscaling has activated more (RED-k stays
// k-way redundant regardless of the scale).
func (p *Redundancy) Dispatch(_ *service.Service, sub *service.SubRequest, now float64) {
	if p.hooks == nil || p.hooks.CancelOnStart != p.CancelDelay {
		p.hooks = &service.Hooks{CancelOnStart: p.CancelDelay}
	}
	sub.SetHooks(p.hooks)
	for _, in := range sub.Comp.ActiveInstances()[:p.K] {
		sub.IssueTo(in, now)
	}
}

// Reissue is the RI-p policy of [14], [18]: send to the primary, and if the
// sub-request is still outstanding after the p-th percentile of the
// expected latency for its component class, send one replica to a backup
// instance; the quickest wins.
type Reissue struct {
	// Percentile is the reissue trigger (90 or 99 in the paper).
	Percentile float64
	// ColdStartFactor multiplies the stage's base service time to form the
	// timeout before enough latency history exists. 0 selects 5.
	ColdStartFactor float64

	est []*quantileEstimator // per stage, lazily sized
	// hooks carry the completion hook every dispatched sub-request
	// points at: one method value, bound to this policy, built once. A
	// swap to a fresh RI-p policy leaves the old one's in-flight
	// sub-requests feeding the old estimators.
	hooks service.Hooks
}

// NewReissue returns an RI-p policy.
func NewReissue(percentile float64) *Reissue {
	if percentile <= 0 || percentile >= 100 {
		panic("baseline: reissue percentile must be in (0, 100)")
	}
	return &Reissue{Percentile: percentile}
}

// Name implements service.Policy.
func (p *Reissue) Name() string { return fmt.Sprintf("RI-%d", int(p.Percentile)) }

// Replicas implements service.Policy: a primary plus one backup.
func (p *Reissue) Replicas() int { return 2 }

// Dispatch sends to the primary and arms the reissue timer. The timer
// runs on the request path's root context (service.AfterData), so it
// reads sub.Done and reissues safely in laned mode too.
func (p *Reissue) Dispatch(svc *service.Service, sub *service.SubRequest, now float64) {
	stage := sub.Comp.Stage
	for len(p.est) <= stage {
		p.est = append(p.est, newQuantileEstimator(2048, 256))
	}
	if p.hooks.OnDone == nil {
		p.hooks.OnDone = p.completed
	}
	sub.SetHooks(&p.hooks)
	sub.IssueTo(sub.Comp.Primary(), now)

	timeout, ok := p.est[stage].Quantile(p.Percentile)
	if !ok {
		f := p.ColdStartFactor
		if f <= 0 {
			f = 5
		}
		timeout = sub.Comp.Spec.BaseServiceTime * f
	}
	svc.AfterData(now, timeout, (*reissueTimer)(sub))
}

// completed feeds a winning completion's latency into its stage's
// estimator.
func (p *Reissue) completed(sub *service.SubRequest, now float64) {
	p.est[sub.Comp.Stage].Add(now - sub.IssuedAt())
}

// reissueTimer is a sub-request viewed as its reissue timer: unless a
// winner has completed by then, it issues one backup on the component's
// second replica.
type reissueTimer service.SubRequest

func (t *reissueTimer) Fire(now float64) {
	sub := (*service.SubRequest)(t)
	if sub.Done() {
		return
	}
	sub.IssueTo(sub.Comp.Instances[1], now)
}
