package traffic

import (
	"fmt"

	"repro/internal/xrand"
)

// Poisson is the memoryless open-loop process the paper's evaluation uses
// (the M in its M/G/1 model): exponential interarrival gaps at rate λ,
// retargetable mid-run. It reproduces internal/xrand.ArrivalProcess draw
// for draw and float-op for float-op — gap = Exp(1/λ) accumulated onto an
// internal clock — because the RunSpec.ArrivalRate compat shim is pinned
// byte-identical to the pre-redesign tree.
type Poisson struct {
	src  *xrand.Source
	rate float64
	// now is the process's own arrival clock. The accumulation happens
	// here, not from Next's argument, so the float additions sequence
	// exactly as ArrivalProcess's did (and composed sources can drive a
	// Poisson child without perturbing its stream).
	now float64
	// meta is attached to every arrival (a tenant's child source tags its
	// arrivals here); zero for plain load.
	meta Meta
}

// NewPoisson returns a Poisson source at rate arrivals/second. It panics
// if rate <= 0, matching xrand.NewArrivalProcess — a non-positive rate is
// a programming error, not a workload.
func NewPoisson(src *xrand.Source, rate float64) *Poisson {
	if rate <= 0 {
		panic("traffic: poisson rate must be positive")
	}
	return &Poisson{src: src, rate: rate}
}

// Name implements Source.
func (p *Poisson) Name() string { return "poisson" }

// Next implements Source: the next arrival is the internal clock advanced
// by an Exp(1/λ) gap. The now argument is ignored — the clock accumulates
// internally so rate changes apply from the next gap exactly as
// ArrivalProcess applied them.
func (p *Poisson) Next(now float64) (Arrival, bool) {
	p.now += p.src.Exp(1 / p.rate)
	return Arrival{At: p.now, Meta: p.meta}, true
}

// Rate implements Source: the current λ.
func (p *Poisson) Rate() float64 { return p.rate }

// SetRate implements Source: λ is set directly (Poisson is its own
// nominal), effective from the next gap.
func (p *Poisson) SetRate(rate float64) error {
	if rate <= 0 {
		return fmt.Errorf("traffic: poisson rate must be positive, got %g", rate)
	}
	p.rate = rate
	return nil
}
