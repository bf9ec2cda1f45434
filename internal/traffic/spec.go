package traffic

import (
	"fmt"

	"repro/internal/xrand"
)

// Spec kinds. Kind selects which Source a Spec constructs.
const (
	// KindPoisson is the memoryless constant-rate process (the paper's
	// default workload).
	KindPoisson = "poisson"
	// KindTrace replays a recorded NDJSON/CSV arrival trace from Path.
	KindTrace = "trace"
	// KindSessions derives load from a closed population of Users flows
	// with think time.
	KindSessions = "sessions"
	// KindMMPP is the bursty Markov-modulated process over Rates/Sojourns
	// states.
	KindMMPP = "mmpp"
	// KindMultiTenant composes Tenants into one stream with per-tenant
	// admission buckets.
	KindMultiTenant = "multi-tenant"
)

// Spec is the pure-data description of a traffic source, mirroring the
// policy.Spec pattern: scenarios and run specs carry Specs, and every
// replication constructs a fresh Source from its own stream — sources are
// stateful and must never be shared across runs. Fields beyond Kind apply
// per kind; Validate rejects mixtures that don't parse. The JSON encoding
// is the "traffic" object of a pcs.RunSpec (docs/traffic.md).
type Spec struct {
	// Kind selects the source: one of the Kind constants.
	//
	//   - "poisson": memoryless arrivals at Rate — the paper's own
	//     workload, made explicit.
	//   - "trace": replay a recorded NDJSON/CSV arrival trace from Path,
	//     streamed so multi-gigabyte traces never load into memory.
	//     NDJSON records are {"t": seconds, "tenant": "...", "class":
	//     "..."} per line; CSV rows are t[,tenant[,class]].
	//   - "sessions": a closed population of Users flows, each issuing a
	//     request then thinking for a lognormal(ThinkSeconds, ThinkSigma)
	//     think time — offered load emerges from population size.
	//   - "mmpp": Markov-modulated Poisson burstiness cycling through
	//     Rates[i]-intensity states held for mean Sojourns[i] seconds.
	//   - "multi-tenant": per-tenant sources composed under token-bucket
	//     admission, with per-tenant latency/drop breakdowns in the run's
	//     result.
	Kind string `json:"kind"`

	// Rate is the Poisson λ, or the nominal pacing rate of a trace
	// replay that steering scales against; 0 defers to the run's
	// ArrivalRate. Sessions and MMPP derive their intensity from their own
	// fields and ignore Rate.
	Rate float64 `json:"rate,omitempty"`

	// Path and Format configure KindTrace: Path is the trace file,
	// Format one of FormatAuto ("", inferred from the extension),
	// FormatNDJSON or FormatCSV.
	Path   string `json:"path,omitempty"`
	Format string `json:"format,omitempty"`

	// Users, ThinkSeconds and ThinkSigma configure KindSessions: Users
	// concurrent flows with lognormal(ThinkSeconds, ThinkSigma) think
	// times (sigma 0 selects 0.5).
	Users        int     `json:"users,omitempty"`
	ThinkSeconds float64 `json:"thinkSeconds,omitempty"`
	ThinkSigma   float64 `json:"thinkSigma,omitempty"`

	// Rates, Sojourns and HeavyTail configure KindMMPP: state i runs at
	// Rates[i] arrivals/second for a mean of Sojourns[i] seconds;
	// HeavyTail draws sojourns from a bounded Pareto instead of an
	// exponential, giving spike durations a power-law tail.
	Rates     []float64 `json:"rates,omitempty"`
	Sojourns  []float64 `json:"sojourns,omitempty"`
	HeavyTail bool      `json:"heavyTail,omitempty"`

	// Tenants configures KindMultiTenant.
	Tenants []TenantSpec `json:"tenants,omitempty"`
}

// TenantSpec is one tenant inside a KindMultiTenant spec.
type TenantSpec struct {
	// Name tags the tenant's arrivals and keys the per-tenant breakdown
	// in the run's result; unique and non-empty.
	Name string `json:"name"`
	// Source describes the tenant's own arrival process; nesting another
	// multi-tenant is rejected.
	Source Spec `json:"source"`
	// AdmitRate and Burst configure the tenant's token bucket: at most
	// AdmitRate admitted requests/second via a deterministic token
	// bucket, with Burst depth — how far above AdmitRate the tenant may
	// spike before denials start (0 with a positive AdmitRate selects 1).
	// AdmitRate 0 admits everything.
	AdmitRate float64 `json:"admitRate,omitempty"`
	Burst     int     `json:"burst,omitempty"`
}

// Validate checks the spec is well-formed without constructing anything.
func (s *Spec) Validate() error {
	switch s.Kind {
	case KindPoisson:
		if s.Rate < 0 {
			return fmt.Errorf("traffic: poisson rate must be non-negative, got %g", s.Rate)
		}
	case KindTrace:
		if s.Path == "" {
			return fmt.Errorf("traffic: trace spec needs a path")
		}
		switch s.Format {
		case FormatAuto, FormatNDJSON, FormatCSV:
		default:
			return fmt.Errorf("traffic: unknown trace format %q", s.Format)
		}
		if s.Rate < 0 {
			return fmt.Errorf("traffic: trace nominal rate must be non-negative, got %g", s.Rate)
		}
	case KindSessions:
		if s.Users < 1 {
			return fmt.Errorf("traffic: sessions need at least 1 user, got %d", s.Users)
		}
		if s.ThinkSeconds <= 0 {
			return fmt.Errorf("traffic: sessions think time must be positive, got %g", s.ThinkSeconds)
		}
		if s.ThinkSigma < 0 {
			return fmt.Errorf("traffic: sessions think sigma must be non-negative, got %g", s.ThinkSigma)
		}
	case KindMMPP:
		if len(s.Rates) < 2 {
			return fmt.Errorf("traffic: mmpp needs at least 2 states, got %d", len(s.Rates))
		}
		if len(s.Sojourns) != len(s.Rates) {
			return fmt.Errorf("traffic: mmpp has %d rates but %d sojourns", len(s.Rates), len(s.Sojourns))
		}
		for i := range s.Rates {
			if s.Rates[i] <= 0 {
				return fmt.Errorf("traffic: mmpp state %d rate must be positive, got %g", i, s.Rates[i])
			}
			if s.Sojourns[i] <= 0 {
				return fmt.Errorf("traffic: mmpp state %d sojourn must be positive, got %g", i, s.Sojourns[i])
			}
		}
	case KindMultiTenant:
		if len(s.Tenants) == 0 {
			return fmt.Errorf("traffic: multi-tenant spec needs at least one tenant")
		}
		seen := make(map[string]bool)
		for i, t := range s.Tenants {
			if t.Name == "" {
				return fmt.Errorf("traffic: tenant %d has no name", i)
			}
			if seen[t.Name] {
				return fmt.Errorf("traffic: duplicate tenant %q", t.Name)
			}
			seen[t.Name] = true
			if t.Source.Kind == KindMultiTenant {
				return fmt.Errorf("traffic: tenant %q nests a multi-tenant source", t.Name)
			}
			if err := t.Source.Validate(); err != nil {
				return fmt.Errorf("traffic: tenant %q: %w", t.Name, err)
			}
			if t.AdmitRate < 0 {
				return fmt.Errorf("traffic: tenant %q admit rate must be non-negative, got %g", t.Name, t.AdmitRate)
			}
			if t.AdmitRate == 0 && t.Burst != 0 {
				return fmt.Errorf("traffic: tenant %q sets burst without an admit rate", t.Name)
			}
			if t.Burst < 0 {
				return fmt.Errorf("traffic: tenant %q burst must be non-negative, got %d", t.Name, t.Burst)
			}
		}
	case "":
		return fmt.Errorf("traffic: spec has no kind")
	default:
		return fmt.Errorf("traffic: unknown traffic kind %q", s.Kind)
	}
	return nil
}

// New constructs a fresh Source from the spec. src is the source's random
// stream — the top-level source consumes it directly (so an explicit
// poisson spec lands on the exact stream the scalar compat shim uses);
// multi-tenant children each get a fork, taken in tenant order. nominal
// is the run's ArrivalRate, the fallback intensity for kinds whose Rate
// field is 0.
func (s *Spec) New(src *xrand.Source, nominal float64) (Source, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rate := s.Rate
	if rate == 0 {
		rate = nominal
	}
	switch s.Kind {
	case KindPoisson:
		if rate <= 0 {
			return nil, fmt.Errorf("traffic: poisson needs a positive rate (spec rate %g, run rate %g)", s.Rate, nominal)
		}
		return NewPoisson(src, rate), nil
	case KindTrace:
		if rate <= 0 {
			return nil, fmt.Errorf("traffic: trace needs a positive nominal rate (spec rate %g, run rate %g)", s.Rate, nominal)
		}
		return NewTraceReplay(s.Path, s.Format, rate)
	case KindSessions:
		return NewSessions(src, s.Users, s.ThinkSeconds, s.ThinkSigma)
	case KindMMPP:
		return NewMMPP(src, s.Rates, s.Sojourns, s.HeavyTail)
	case KindMultiTenant:
		tenants := make([]Tenant, 0, len(s.Tenants))
		for _, ts := range s.Tenants {
			child, err := ts.Source.New(src.Fork(), nominal)
			if err != nil {
				return nil, fmt.Errorf("traffic: tenant %q: %w", ts.Name, err)
			}
			tenants = append(tenants, Tenant{
				Name:      ts.Name,
				Source:    child,
				AdmitRate: ts.AdmitRate,
				Burst:     ts.Burst,
			})
		}
		return NewMultiTenant(tenants)
	}
	return nil, fmt.Errorf("traffic: unknown traffic kind %q", s.Kind)
}
