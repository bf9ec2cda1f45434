package traffic

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// TestPoissonMatchesArrivalProcess is the compat cornerstone: Poisson must
// consume the identical draw sequence — and produce the identical float64
// timestamps — as the pre-redesign xrand.ArrivalProcess, including across
// mid-stream rate changes, because the RunSpec.ArrivalRate shim's
// byte-identity to PR 5 rests on it.
func TestPoissonMatchesArrivalProcess(t *testing.T) {
	const seed = 12345
	old := xrand.NewArrivalProcess(xrand.New(seed), 60)
	src := NewPoisson(xrand.New(seed), 60)
	var now float64
	for i := 0; i < 10_000; i++ {
		if i == 2500 {
			old.SetRate(95)
			if err := src.SetRate(95); err != nil {
				t.Fatal(err)
			}
		}
		if i == 7000 {
			old.SetRate(12.5)
			if err := src.SetRate(12.5); err != nil {
				t.Fatal(err)
			}
		}
		want := old.Next()
		a, ok := src.Next(now)
		if !ok {
			t.Fatalf("draw %d: poisson source exhausted", i)
		}
		if a.At != want {
			t.Fatalf("draw %d: timestamps diverged: poisson %v, arrival process %v", i, a.At, want)
		}
		now = a.At
	}
}

func TestPoissonValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPoisson(rate<=0) did not panic")
		}
	}()
	p := NewPoisson(xrand.New(1), 10)
	if err := p.SetRate(0); err == nil {
		t.Error("SetRate(0) accepted")
	}
	if err := p.SetRate(-5); err == nil {
		t.Error("SetRate(-5) accepted")
	}
	if err := p.SetRate(20); err != nil || p.Rate() != 20 {
		t.Errorf("SetRate(20): err=%v rate=%g", err, p.Rate())
	}
	NewPoisson(xrand.New(1), 0)
}

func writeTrace(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func drain(t *testing.T, src Source, max int) []Arrival {
	t.Helper()
	var out []Arrival
	now := 0.0
	for len(out) < max {
		a, ok := src.Next(now)
		if !ok {
			break
		}
		if a.At < now {
			t.Fatalf("arrival %d at %g before previous %g", len(out), a.At, now)
		}
		out = append(out, a)
		now = a.At
	}
	return out
}

func TestTraceReplayNDJSON(t *testing.T) {
	path := writeTrace(t, "arrivals.ndjson", `
{"t": 0.5, "tenant": "search", "class": "query"}
{"t": 1.0, "tenant": "feed"}

# a comment
{"t": 1.25}
{"t": 4.0, "tenant": "search"}
`)
	tr, err := NewTraceReplay(path, FormatAuto, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if got := tr.Name(); got != "trace:arrivals.ndjson" {
		t.Errorf("Name() = %q", got)
	}
	as := drain(t, tr, 10)
	if len(as) != 4 {
		t.Fatalf("got %d arrivals, want 4: %+v", len(as), as)
	}
	want := []Arrival{
		{At: 0.5, Meta: Meta{Tenant: "search", Class: "query"}},
		{At: 1.0, Meta: Meta{Tenant: "feed"}},
		{At: 1.25},
		{At: 4.0, Meta: Meta{Tenant: "search"}},
	}
	for i := range want {
		if as[i] != want[i] {
			t.Errorf("arrival %d = %+v, want %+v", i, as[i], want[i])
		}
	}
	if err := tr.Err(); err != nil {
		t.Errorf("clean trace reported error: %v", err)
	}
}

func TestTraceReplayCSV(t *testing.T) {
	path := writeTrace(t, "arrivals.csv", `t,tenant,class
0.25,alpha,query
0.75,beta
2.0
`)
	tr, err := NewTraceReplay(path, FormatAuto, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	as := drain(t, tr, 10)
	if len(as) != 3 {
		t.Fatalf("got %d arrivals, want 3", len(as))
	}
	if as[0] != (Arrival{At: 0.25, Meta: Meta{Tenant: "alpha", Class: "query"}}) {
		t.Errorf("arrival 0 = %+v", as[0])
	}
	if as[1] != (Arrival{At: 0.75, Meta: Meta{Tenant: "beta"}}) {
		t.Errorf("arrival 1 = %+v", as[1])
	}
}

func TestTraceReplaySpeedScaling(t *testing.T) {
	tr, err := NewTraceReplayReader(strings.NewReader("1.0\n2.0\n4.0\n"), FormatCSV, "test", 10)
	if err != nil {
		t.Fatal(err)
	}
	// Double speed: recorded gaps halve.
	if err := tr.SetRate(20); err != nil {
		t.Fatal(err)
	}
	as := drain(t, tr, 3)
	want := []float64{0.5, 1.0, 2.0}
	for i, w := range want {
		if as[i].At != w {
			t.Errorf("arrival %d at %g, want %g", i, as[i].At, w)
		}
	}
}

func TestTraceReplayErrors(t *testing.T) {
	if _, err := NewTraceReplayReader(strings.NewReader(""), FormatNDJSON, "empty", 10); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewTraceReplayReader(strings.NewReader("not json\n"), FormatNDJSON, "bad", 10); err == nil {
		t.Error("malformed first record accepted")
	}
	if _, err := NewTraceReplayReader(strings.NewReader("1.0\n"), "xml", "fmt", 10); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := NewTraceReplayReader(strings.NewReader("1.0\n"), FormatCSV, "rate", 0); err == nil {
		t.Error("zero nominal rate accepted")
	}

	// A trace that breaks mid-file: replay stops there and Err reports it.
	tr, err := NewTraceReplayReader(strings.NewReader("1.0\n2.0\nbroken\n"), FormatCSV, "mid", 10)
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, tr, 10)
	if len(as) != 2 {
		t.Fatalf("got %d arrivals before break, want 2", len(as))
	}
	if tr.Err() == nil {
		t.Error("broken trace reported no error")
	}

	// Non-monotone timestamps are a break, not a reorder.
	tr, err = NewTraceReplayReader(strings.NewReader("1.0\n0.5\n"), FormatCSV, "mono", 10)
	if err != nil {
		t.Fatal(err)
	}
	if as := drain(t, tr, 10); len(as) != 1 {
		t.Fatalf("got %d arrivals, want 1", len(as))
	}
	if tr.Err() == nil || !strings.Contains(tr.Err().Error(), "non-decreasing") {
		t.Errorf("non-monotone trace error = %v", tr.Err())
	}
}

func TestSessionsRateEmergesFromPopulation(t *testing.T) {
	s, err := NewSessions(xrand.New(7), 100, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Rate(), 50.0; got != want {
		t.Errorf("nominal rate %g, want %g", got, want)
	}
	as := drain(t, s, 5000)
	span := as[len(as)-1].At - as[0].At
	rate := float64(len(as)-1) / span
	if rate < 40 || rate > 60 {
		t.Errorf("empirical rate %g too far from nominal 50", rate)
	}
	// User IDs cover the population.
	seen := make(map[int]bool)
	for _, a := range as {
		seen[a.Meta.User] = true
	}
	if len(seen) != 100 {
		t.Errorf("saw %d distinct users, want 100", len(seen))
	}
}

func TestSessionsDeterministicAndSteerable(t *testing.T) {
	run := func() []Arrival {
		s, err := NewSessions(xrand.New(11), 10, 1, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		as := drain(t, s, 50)
		if err := s.SetRate(40); err != nil { // 4× speed
			t.Fatal(err)
		}
		return append(as, drain(t, s, 50)...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d diverged between identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMMPPModulatesRate(t *testing.T) {
	m, err := NewMMPP(xrand.New(3), []float64{5, 200}, []float64{10, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Time-averaged nominal: (5·10 + 200·2)/12 = 37.5.
	if got := m.Rate(); got != 5 {
		t.Errorf("initial state rate %g, want 5 (state 0)", got)
	}
	as := drain(t, m, 20_000)
	span := as[len(as)-1].At
	rate := float64(len(as)) / span
	if rate < 25 || rate > 55 {
		t.Errorf("empirical long-run rate %g too far from nominal 37.5", rate)
	}
	// Burstiness: interarrival CV must exceed Poisson's 1.
	var gaps []float64
	for i := 1; i < len(as); i++ {
		gaps = append(gaps, as[i].At-as[i-1].At)
	}
	var sum, sq float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sq/float64(len(gaps))) / mean
	if cv < 1.2 {
		t.Errorf("interarrival CV %g not bursty (Poisson is 1)", cv)
	}
}

func TestMMPPHeavyTailDeterministic(t *testing.T) {
	run := func() []Arrival {
		m, err := NewMMPP(xrand.New(9), []float64{10, 300}, []float64{8, 1}, true)
		if err != nil {
			t.Fatal(err)
		}
		return drain(t, m, 2000)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("heavy-tail arrival %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestTokenBucketDeterministicDrops(t *testing.T) {
	// 2 tokens/s with burst 2 against a 10/s offered stream: the bucket
	// admits the burst then roughly one in five.
	b := newTokenBucket(2, 2)
	admitted, denied := 0, 0
	for i := 0; i < 100; i++ {
		if b.admit(float64(i) * 0.1) {
			admitted++
		} else {
			denied++
		}
	}
	// 10 s elapsed: 2 burst + ~20 refilled.
	if admitted < 20 || admitted > 24 {
		t.Errorf("admitted %d of 100, want ≈22", admitted)
	}
	if admitted+denied != 100 {
		t.Errorf("admitted %d + denied %d != 100", admitted, denied)
	}
}

func TestMultiTenantMergeAndAdmission(t *testing.T) {
	build := func() *MultiTenant {
		root := xrand.New(21)
		m, err := NewMultiTenant([]Tenant{
			{Name: "search", Source: NewPoisson(root.Fork(), 50)},
			{Name: "feed", Source: NewPoisson(root.Fork(), 30), AdmitRate: 10, Burst: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := build()
	as := drain(t, m, 3000)
	counts := map[string]int{}
	drops := map[string]int{}
	for _, a := range as {
		counts[a.Meta.Tenant]++
		if a.Meta.Denied {
			drops[a.Meta.Tenant]++
		}
	}
	if counts["search"] == 0 || counts["feed"] == 0 {
		t.Fatalf("tenant mix collapsed: %v", counts)
	}
	if drops["search"] != 0 {
		t.Errorf("unlimited tenant saw %d drops", drops["search"])
	}
	if drops["feed"] == 0 {
		t.Error("throttled tenant saw no drops at 3× its admit rate")
	}
	// Offered 30/s, admitted 10/s: roughly two thirds denied.
	frac := float64(drops["feed"]) / float64(counts["feed"])
	if frac < 0.5 || frac > 0.8 {
		t.Errorf("feed drop fraction %g, want ≈2/3", frac)
	}
	if got := m.Drops()["feed"]; got != drops["feed"] {
		t.Errorf("Drops() = %d, stream says %d", got, drops["feed"])
	}

	// Bit-determinism of the merged, bucketed stream.
	bs := drain(t, build(), 3000)
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("merged arrival %d diverged: %+v vs %+v", i, as[i], bs[i])
		}
	}
}

func TestMultiTenantValidation(t *testing.T) {
	src := func() Source { return NewPoisson(xrand.New(1), 10) }
	cases := []struct {
		name    string
		tenants []Tenant
	}{
		{"empty", nil},
		{"unnamed", []Tenant{{Source: src()}}},
		{"duplicate", []Tenant{{Name: "a", Source: src()}, {Name: "a", Source: src()}}},
		{"nil source", []Tenant{{Name: "a"}}},
		{"burst without rate", []Tenant{{Name: "a", Source: src(), Burst: 5}}},
	}
	for _, c := range cases {
		if _, err := NewMultiTenant(c.tenants); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSpecValidateAndNew(t *testing.T) {
	bad := []Spec{
		{},
		{Kind: "warp"},
		{Kind: KindTrace},
		{Kind: KindTrace, Path: "x.ndjson", Format: "xml"},
		{Kind: KindSessions},
		{Kind: KindSessions, Users: 5},
		{Kind: KindMMPP, Rates: []float64{1}, Sojourns: []float64{1}},
		{Kind: KindMMPP, Rates: []float64{1, 2}, Sojourns: []float64{1}},
		{Kind: KindMultiTenant},
		{Kind: KindMultiTenant, Tenants: []TenantSpec{{Name: "a", Source: Spec{Kind: KindMultiTenant, Tenants: []TenantSpec{{Name: "b", Source: Spec{Kind: KindPoisson}}}}}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}

	// An explicit poisson spec lands on the stream it is given directly,
	// so it reproduces the scalar path's draws.
	root := xrand.New(5)
	direct := NewPoisson(xrand.New(5), 80)
	spec := Spec{Kind: KindPoisson}
	built, err := spec.New(root, 80)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		w, _ := direct.Next(0)
		g, _ := built.Next(0)
		if g.At != w.At {
			t.Fatalf("draw %d: spec-built poisson diverged from direct: %v vs %v", i, g.At, w.At)
		}
	}

	// Multi-tenant specs fork children in tenant order; same spec + same
	// seed → same stream.
	mt := Spec{Kind: KindMultiTenant, Tenants: []TenantSpec{
		{Name: "a", Source: Spec{Kind: KindPoisson, Rate: 40}},
		{Name: "b", Source: Spec{Kind: KindMMPP, Rates: []float64{5, 100}, Sojourns: []float64{5, 1}}, AdmitRate: 20, Burst: 10},
	}}
	if err := mt.Validate(); err != nil {
		t.Fatal(err)
	}
	s1, err := mt.New(xrand.New(33), 60)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := mt.New(xrand.New(33), 60)
	if err != nil {
		t.Fatal(err)
	}
	a, b := drain(t, s1, 1000), drain(t, s2, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec-built multi-tenant arrival %d diverged", i)
		}
	}
}

func TestSpecNewNeedsRate(t *testing.T) {
	if _, err := (&Spec{Kind: KindPoisson}).New(xrand.New(1), 0); err == nil {
		t.Error("poisson with no rate anywhere accepted")
	}
	if _, err := (&Spec{Kind: KindTrace, Path: "nope.ndjson"}).New(xrand.New(1), 0); err == nil {
		t.Error("trace with no rate anywhere accepted")
	}
}
