package traffic

import (
	"fmt"

	"repro/internal/xrand"
)

// MMPP is a Markov-modulated Poisson process: the source cycles through
// states, each a Poisson process at its own rate, holding each state for
// a random sojourn. A two-state MMPP with a quiet rate and a storm rate
// is the canonical bursty workload — sustained calm punctuated by load
// spikes — and heavy-tailed sojourns make the spikes' durations
// themselves bursty.
//
// State transitions are handled by discard-and-redraw: when a candidate
// gap crosses the current state's end, the clock advances to the boundary
// and the gap is redrawn at the new state's rate. For exponential gaps
// this is exact (memorylessness), so the process is a true MMPP, not an
// approximation.
type MMPP struct {
	src      *xrand.Source
	rates    []float64 // per-state Poisson rate, arrivals/second
	sojourns []float64 // per-state mean sojourn, seconds
	// laws are the per-state bounded-Pareto sojourn laws; nil draws
	// exponential sojourns.
	laws []xrand.BoundedPareto

	nominal float64 // time-averaged rate at speed 1
	speed   float64

	state    int
	now      float64
	stateEnd float64
}

// NewMMPP returns a modulated source cycling through len(rates) states in
// order: state i runs a Poisson process at rates[i] and holds for a
// random sojourn with mean sojourns[i] seconds (exponential, or
// approximately-bounded-Pareto when heavyTail is set — spike durations
// then have a power-law tail). The process starts in state 0 at a full
// sojourn.
func NewMMPP(src *xrand.Source, rates, sojourns []float64, heavyTail bool) (*MMPP, error) {
	if len(rates) < 2 {
		return nil, fmt.Errorf("traffic: mmpp needs at least 2 states, got %d", len(rates))
	}
	if len(sojourns) != len(rates) {
		return nil, fmt.Errorf("traffic: mmpp has %d rates but %d sojourns", len(rates), len(sojourns))
	}
	var weighted, total float64
	for i, r := range rates {
		if r <= 0 {
			return nil, fmt.Errorf("traffic: mmpp state %d rate must be positive, got %g", i, r)
		}
		if sojourns[i] <= 0 {
			return nil, fmt.Errorf("traffic: mmpp state %d sojourn must be positive, got %g", i, sojourns[i])
		}
		weighted += r * sojourns[i]
		total += sojourns[i]
	}
	m := &MMPP{
		src:      src,
		rates:    append([]float64(nil), rates...),
		sojourns: append([]float64(nil), sojourns...),
		nominal:  weighted / total,
		speed:    1,
	}
	if heavyTail {
		// Bounded Pareto with shape 1.5 and lo = mean/3: the unbounded
		// mean is alpha·lo/(alpha−1) = mean, truncated at 20× so a single
		// sojourn cannot swallow a run.
		m.laws = make([]xrand.BoundedPareto, len(sojourns))
		for i, mean := range sojourns {
			m.laws[i] = xrand.NewBoundedPareto(1.5, mean/3, mean*20)
		}
	}
	m.stateEnd = m.drawSojourn()
	return m, nil
}

// drawSojourn returns a speed-scaled sojourn for the current state.
func (m *MMPP) drawSojourn() float64 {
	var d float64
	if m.laws != nil {
		d = m.laws[m.state].Draw(m.src)
	} else {
		d = m.src.Exp(m.sojourns[m.state])
	}
	return d / m.speed
}

// Name implements Source.
func (m *MMPP) Name() string {
	if m.laws != nil {
		return fmt.Sprintf("mmpp:%d-state-heavy", len(m.rates))
	}
	return fmt.Sprintf("mmpp:%d-state", len(m.rates))
}

// Next implements Source: draw a gap at the current state's rate; if it
// crosses the state boundary, move to the boundary, rotate states, redraw.
func (m *MMPP) Next(now float64) (Arrival, bool) {
	for {
		gap := m.src.Exp(1 / (m.rates[m.state] * m.speed))
		if cand := m.now + gap; cand <= m.stateEnd {
			m.now = cand
			return Arrival{At: cand, Meta: Meta{}}, true
		}
		m.now = m.stateEnd
		m.state = (m.state + 1) % len(m.rates)
		m.stateEnd = m.now + m.drawSojourn()
	}
}

// Rate implements Source: the current state's instantaneous rate at the
// current speed — the gauge shows the storm while the storm is on.
func (m *MMPP) Rate() float64 { return m.rates[m.state] * m.speed }

// SetRate implements Source: scales all state rates by rate/nominal
// (nominal is the sojourn-weighted time average), preserving the
// burst-to-calm ratio while steering overall intensity.
func (m *MMPP) SetRate(rate float64) error {
	if rate <= 0 {
		return fmt.Errorf("traffic: mmpp rate must be positive, got %g", rate)
	}
	m.speed = rate / m.nominal
	return nil
}
