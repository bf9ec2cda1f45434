package traffic

import (
	"fmt"

	"repro/internal/xrand"
)

// Sessions models a closed population of user flows: each of N users
// issues a request, thinks for a lognormal think time, and issues the
// next. Offered load emerges from the population — nominally
// Users/ThinkSeconds requests per second — instead of being dialed in as
// a rate constant, which is how "millions of users" becomes a first-class
// input rather than a λ.
//
// Each user draws think times from its own stream, forked from the
// construction source in user-index order, so adding users appends
// streams without perturbing existing ones. Simultaneous arrivals order
// by user index. SetRate scales every future think time by
// nominal/rate, so steering a session source stretches or compresses
// think time — the physically meaningful knob — rather than breaking the
// closed-loop structure.
type Sessions struct {
	users   []*xrand.Source
	think   float64 // mean think time in seconds at speed 1
	sigma   float64 // lognormal sigma of think times
	nominal float64 // Users/ThinkSeconds
	speed   float64
	heap    sessionHeap
}

// NewSessions returns a source of users concurrent session flows with
// lognormal think times of mean thinkSeconds and shape sigma (0 selects
// 0.5). Each user's first request arrives after one think-time draw from
// its own stream, so the population desynchronises naturally.
func NewSessions(src *xrand.Source, users int, thinkSeconds, sigma float64) (*Sessions, error) {
	if users < 1 {
		return nil, fmt.Errorf("traffic: sessions need at least 1 user, got %d", users)
	}
	if thinkSeconds <= 0 {
		return nil, fmt.Errorf("traffic: session think time must be positive, got %g", thinkSeconds)
	}
	if sigma < 0 {
		return nil, fmt.Errorf("traffic: session think sigma must be non-negative, got %g", sigma)
	}
	if sigma == 0 {
		sigma = 0.5
	}
	s := &Sessions{
		think:   thinkSeconds,
		sigma:   sigma,
		nominal: float64(users) / thinkSeconds,
		speed:   1,
	}
	s.users = make([]*xrand.Source, users)
	for u := range s.users {
		s.users[u] = src.Fork()
	}
	// Seed the heap in user order — each user's first draw comes from its
	// own stream, so this loop's order only decides heap layout, not
	// randomness.
	for u := range s.users {
		s.heap.push(sessionEvent{at: s.drawThink(u), user: u})
	}
	return s, nil
}

// drawThink returns one speed-scaled think-time draw for user u.
func (s *Sessions) drawThink(u int) float64 {
	return s.users[u].LogNormalMean(s.think, s.sigma) / s.speed
}

// Name implements Source.
func (s *Sessions) Name() string { return fmt.Sprintf("sessions:%d", len(s.users)) }

// Next implements Source: pop the earliest user's request, schedule that
// user's next one think time later. Requests are instantaneous from the
// source's point of view — think time models the whole user round trip,
// which keeps the source open-loop toward the engine and the determinism
// invariants intact (a closed loop through simulated latency would make
// arrival draws depend on service state).
func (s *Sessions) Next(now float64) (Arrival, bool) {
	ev := s.heap[0]
	s.heap.replaceMin(sessionEvent{at: ev.at + s.drawThink(ev.user), user: ev.user})
	return Arrival{At: ev.at, Meta: Meta{User: ev.user}}, true
}

// Rate implements Source: the nominal population rate Users/Think at the
// current speed.
func (s *Sessions) Rate() float64 { return s.nominal * s.speed }

// SetRate implements Source: future think times scale by nominal/rate.
func (s *Sessions) SetRate(rate float64) error {
	if rate <= 0 {
		return fmt.Errorf("traffic: sessions rate must be positive, got %g", rate)
	}
	s.speed = rate / s.nominal
	return nil
}

// sessionEvent is one user's next request time.
type sessionEvent struct {
	at   float64
	user int
}

// before orders events by time, user index breaking ties so simultaneous
// draws pop deterministically. Each user has exactly one pending event,
// so the order is total and any heap pops the same sequence.
func (a sessionEvent) before(b sessionEvent) bool {
	return a.at < b.at || (a.at == b.at && a.user < b.user)
}

// sessionHeap is a binary min-heap of the users' pending events.
type sessionHeap []sessionEvent

// push adds ev.
func (h *sessionHeap) push(ev sessionEvent) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// replaceMin replaces the earliest event with ev and restores the order.
func (h sessionHeap) replaceMin(ev sessionEvent) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}
