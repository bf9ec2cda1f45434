package xrand

import (
	"math"
	"testing"
)

func TestDeterminismWithSameSeed(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(7)
	child := a.Fork()
	// The child stream must differ from the parent's continued stream.
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != child.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("forked source mirrors parent")
	}
}

func TestExpMean(t *testing.T) {
	src := New(1)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += src.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("exponential mean = %v, want ≈2.5", mean)
	}
}

func TestExpPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestLogNormalMean(t *testing.T) {
	src := New(2)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += src.LogNormalMean(3, 0.5)
	}
	mean := sum / n
	if math.Abs(mean-3) > 0.08 {
		t.Fatalf("lognormal mean = %v, want ≈3", mean)
	}
}

func TestLogNormalMeanPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LogNormalMean(0, ...) did not panic")
		}
	}()
	New(1).LogNormalMean(0, 1)
}

func TestUniformRange(t *testing.T) {
	src := New(3)
	for i := 0; i < 1000; i++ {
		v := src.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestBoundedParetoRange(t *testing.T) {
	src, law := New(4), NewBoundedPareto(0.9, 1, 1000)
	for i := 0; i < 5000; i++ {
		v := law.Draw(src)
		if v < 1-1e-9 || v > 1000+1e-9 {
			t.Fatalf("BoundedPareto out of range: %v", v)
		}
	}
}

func TestBoundedParetoSkewsLow(t *testing.T) {
	src, law := New(5), NewBoundedPareto(1.0, 1, 1000)
	const n = 20000
	below := 0
	for i := 0; i < n; i++ {
		if law.Draw(src) < 100 {
			below++
		}
	}
	// A Pareto with α=1 on [1,1000] puts the vast majority of mass below
	// a tenth of the range.
	if frac := float64(below) / n; frac < 0.85 {
		t.Fatalf("only %.2f of draws below 100; distribution not heavy at the low end", frac)
	}
}

func TestBoundedParetoPanicsOnBadParams(t *testing.T) {
	cases := [][3]float64{{0, 1, 2}, {1, 0, 2}, {1, 2, 2}, {1, 3, 2}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBoundedPareto(%v) did not panic", c)
				}
			}()
			NewBoundedPareto(c[0], c[1], c[2])
		}()
	}
}

// paretoByFormula is the bounded-Pareto inversion written out, every
// constant computed at the draw.
func paretoByFormula(u, alpha, lo, hi float64) float64 {
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// TestBoundedParetoLawMatchesFormula pins the prebuilt law to the
// written-out formula bit for bit, over the parameter sets the workload
// generator, the training mixes and the MMPP sojourns use.
func TestBoundedParetoLawMatchesFormula(t *testing.T) {
	for _, c := range []struct{ alpha, lo, hi float64 }{
		{0.7, 1, 10 * 1024}, // generator default
		{0.9, 1, 10 * 1024}, // training mixes
		{0.9, 50, 4096},     // a narrower input range
		{1.5, 2.0 / 3, 40},  // MMPP sojourn, mean 2 s
		{1.5, 0.1 / 3, 2},   // MMPP sojourn, mean 0.1 s
		{3, 1e-3, 1e3},      // light tail, wide range
	} {
		law := NewBoundedPareto(c.alpha, c.lo, c.hi)
		a, b := New(11), New(11)
		for i := 0; i < 2000; i++ {
			got := law.Draw(a)
			want := paretoByFormula(b.Float64(), c.alpha, c.lo, c.hi)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("α=%g [%g, %g] draw %d: law %v, formula %v", c.alpha, c.lo, c.hi, i, got, want)
			}
		}
	}
}

// FuzzBoundedParetoLaw compares the law with the written-out formula by
// bits for any valid parameters and seed.
func FuzzBoundedParetoLaw(f *testing.F) {
	f.Add(0.7, 1.0, 10240.0, int64(1))
	f.Add(1.5, 0.5, 30.0, int64(7))
	f.Fuzz(func(t *testing.T, alpha, lo, hi float64, seed int64) {
		if !(lo > 0 && hi > lo && alpha > 0) || math.IsInf(hi, 1) {
			t.Skip()
		}
		law := NewBoundedPareto(alpha, lo, hi)
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			got := law.Draw(a)
			want := paretoByFormula(b.Float64(), alpha, lo, hi)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("α=%g [%g, %g] draw %d: law %v, formula %v", alpha, lo, hi, i, got, want)
			}
		}
	})
}

func TestPoissonMean(t *testing.T) {
	src := New(6)
	for _, mean := range []float64{0.5, 3, 20, 80} { // spans Knuth and normal-approx paths
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += src.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if src.Poisson(0) != 0 || src.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestChoiceExcludes(t *testing.T) {
	src := New(7)
	for i := 0; i < 1000; i++ {
		got := src.Choice(5, 2)
		if got == 2 || got < 0 || got >= 5 {
			t.Fatalf("Choice(5, excluding 2) = %d", got)
		}
	}
}

func TestChoiceCoversAllOthers(t *testing.T) {
	src := New(8)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[src.Choice(4, 1)] = true
	}
	for _, want := range []int{0, 2, 3} {
		if !seen[want] {
			t.Fatalf("Choice never produced %d", want)
		}
	}
}

func TestChoicePanicsOnSmallN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice(1, 0) did not panic")
		}
	}()
	New(1).Choice(1, 0)
}

func TestArrivalProcessRate(t *testing.T) {
	src := New(9)
	p := NewArrivalProcess(src, 50)
	const n = 50000
	var last float64
	for i := 0; i < n; i++ {
		last = p.Next()
	}
	rate := n / last
	if math.Abs(rate-50) > 1.5 {
		t.Fatalf("realised rate = %v, want ≈50", rate)
	}
}

func TestArrivalProcessMonotone(t *testing.T) {
	p := NewArrivalProcess(New(10), 100)
	prev := 0.0
	for i := 0; i < 1000; i++ {
		next := p.Next()
		if next <= prev {
			t.Fatalf("arrival times not strictly increasing: %v after %v", next, prev)
		}
		prev = next
	}
}

func TestArrivalProcessSetRate(t *testing.T) {
	p := NewArrivalProcess(New(11), 10)
	if p.Rate() != 10 {
		t.Fatalf("Rate = %v", p.Rate())
	}
	p.SetRate(100)
	if p.Rate() != 100 {
		t.Fatalf("Rate after SetRate = %v", p.Rate())
	}
	start := p.Next()
	const n = 20000
	var last float64
	for i := 0; i < n; i++ {
		last = p.Next()
	}
	rate := n / (last - start)
	if math.Abs(rate-100) > 3 {
		t.Fatalf("realised rate after SetRate = %v, want ≈100", rate)
	}
}

func TestArrivalProcessPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewArrivalProcess(rate=0) did not panic")
		}
	}()
	NewArrivalProcess(New(1), 0)
}

func TestNormalMoments(t *testing.T) {
	src := New(12)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := src.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestStreamSeedZeroIsRoot(t *testing.T) {
	for _, root := range []int64{0, 1, -5, 1 << 40} {
		if got := StreamSeed(root, 0); got != root {
			t.Fatalf("StreamSeed(%d, 0) = %d, want the root", root, got)
		}
	}
}

func TestStreamSeedsDistinct(t *testing.T) {
	// Adjacent roots and adjacent stream indices must not collide — the
	// runner derives every replication's seed this way.
	seen := make(map[int64]bool)
	for root := int64(0); root < 8; root++ {
		for i := 1; i < 64; i++ {
			s := StreamSeed(root, i)
			if seen[s] {
				t.Fatalf("seed collision at root=%d i=%d", root, i)
			}
			seen[s] = true
		}
	}
}

func TestStreamSeedDeterministic(t *testing.T) {
	if StreamSeed(99, 7) != StreamSeed(99, 7) {
		t.Fatal("StreamSeed is not a pure function")
	}
	a := New(StreamSeed(1, 3)).Float64()
	b := New(StreamSeed(1, 3)).Float64()
	if a != b {
		t.Fatal("sources from the same stream seed diverge")
	}
}
