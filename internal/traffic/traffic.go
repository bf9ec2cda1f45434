// Package traffic is the arrival-process layer: deterministic sources of
// request arrivals that replace the single scalar Poisson λ the paper's
// evaluation drives every technique with. A Source yields one arrival at a
// time — a virtual timestamp plus per-request metadata (tenant, class) —
// and the service layer turns each into an engine event, so "production-
// shaped" workloads (replayed traces, session populations with think time,
// bursty modulated processes, multi-tenant mixes with per-tenant admission
// control) plug into the exact event path the scalar rate used.
//
// Determinism is non-negotiable, exactly as for internal/policy: a source
// draws randomness only from the seeded xrand stream it was constructed
// with, never reads wall-clock time, and is driven from the engine's
// sequential event chain — one Next call per arrival, in arrival order. A
// run over any source therefore replays bit-identically at any worker or
// shard count, and the scalar RunSpec.ArrivalRate path survives as a
// compat shim constructing a Poisson source from the same stream fork the
// pre-redesign code used (pinned byte-for-byte against PR 5 goldens).
//
// Sources are built from pure-data Specs (see spec.go) so scenarios can
// script them and every replication constructs a fresh instance — sources
// are stateful, and sharing one across runs would break replay
// determinism. The authoring contract is documented in docs/traffic.md.
package traffic

// Meta is the per-arrival metadata a source attaches to each request.
// Sources that model undifferentiated load leave it zero.
type Meta struct {
	// Tenant names the tenant the request belongs to; "" is untenanted.
	// Tenanted requests get per-tenant latency breakdowns in reports.
	Tenant string
	// Class is an optional request class from trace metadata (e.g.
	// "search", "feed"); the simulator records it but does not act on it.
	Class string
	// User identifies the session-source user flow the arrival belongs to
	// (0 for non-session sources).
	User int
	// Denied marks an arrival rejected by admission control (a tenant's
	// token bucket ran dry). Denied arrivals consume request budget and
	// are counted as drops, but never enter the service.
	Denied bool
}

// Arrival is one request arrival: an absolute virtual timestamp and its
// metadata. Timestamps from one source are non-decreasing.
type Arrival struct {
	// At is the arrival's absolute virtual time in seconds.
	At float64
	// Meta carries the arrival's metadata.
	Meta Meta
}

// Source is a deterministic arrival process. The service layer drives it
// from the engine's sequential event chain: Next is called once per
// arrival, at the virtual time of the previous arrival, and the returned
// timestamp schedules the next one. Implementations must be deterministic
// functions of their construction parameters, their seeded xrand stream
// and the call sequence — no wall-clock, no global state.
type Source interface {
	// Name identifies the source in reports and gauges (e.g. "poisson",
	// "trace:arrivals.ndjson", "sessions:400").
	Name() string
	// Next returns the next arrival. now is the virtual time of the
	// previous arrival from this source (0 before the first). ok reports
	// false when the source is exhausted — a trace ran out, or a fatal
	// parse error stopped replay (see TraceReplay.Err).
	Next(now float64) (a Arrival, ok bool)
	// Rate reports the source's current offered intensity in arrivals per
	// second — exact for rate-based sources, a windowed estimate for
	// replayed traces. It is the OfferedRate/AdmittedRate gauge feed.
	Rate() float64
	// SetRate retargets the source's effective intensity to rate
	// arrivals/second: rate-based sources set λ directly; replay and
	// session sources scale time by rate/nominal (their configured
	// nominal intensity), so rate steps, diurnal modulation and admission
	// throttling all compose through this one verb. The rate must be
	// positive.
	SetRate(rate float64) error
}
