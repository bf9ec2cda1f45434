package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitPolyRecoversLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	r, err := FitPoly(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r.Coef[0], 3, 1e-9) || !almostEqual(r.Coef[1], 2, 1e-9) {
		t.Fatalf("coefficients = %v, want [3 2]", r.Coef)
	}
	if !almostEqual(r.R2, 1, 1e-9) {
		t.Fatalf("R² = %v, want 1", r.R2)
	}
	if got := r.Predict(10); !almostEqual(got, 23, 1e-9) {
		t.Fatalf("Predict(10) = %v, want 23", got)
	}
}

func TestFitPolyRecoversQuadratic(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1 - x + 0.5*x*x
	}
	r, err := FitPoly(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -1, 0.5}
	for d, c := range want {
		if !almostEqual(r.Coef[d], c, 1e-9) {
			t.Fatalf("coef[%d] = %v, want %v (all %v)", d, r.Coef[d], c, r.Coef)
		}
	}
	if r.Degree() != 2 {
		t.Fatalf("degree = %d", r.Degree())
	}
}

func TestFitPolyConstantInputIsSingular(t *testing.T) {
	xs := []float64{2, 2, 2, 2}
	ys := []float64{1, 2, 3, 4}
	if _, err := FitPoly(xs, ys, 1); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestFitPolyTooFewSamples(t *testing.T) {
	if _, err := FitPoly([]float64{1, 2}, []float64{1, 2}, 2); !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("err = %v, want ErrTooFewSamples", err)
	}
}

func TestFitPolyMismatchedLengths(t *testing.T) {
	if _, err := FitPoly([]float64{1, 2, 3}, []float64{1, 2}, 1); err == nil {
		t.Fatal("expected error on mismatched lengths")
	}
}

func TestFitPolyNegativeDegree(t *testing.T) {
	if _, err := FitPoly([]float64{1}, []float64{1}, -1); err == nil {
		t.Fatal("expected error on negative degree")
	}
}

func TestFitPolyR2OnNoisyData(t *testing.T) {
	// With modest noise, R² should be high but below 1.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i) / 20
		ys[i] = 5 + 1.5*xs[i] + rng.NormFloat64()*0.3
	}
	r, err := FitPoly(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.R2 < 0.9 || r.R2 >= 1 {
		t.Fatalf("R² = %v, want in [0.9, 1)", r.R2)
	}
}

func TestFitPolyRecoversRandomLines(t *testing.T) {
	f := func(a, b float64, seed int64) bool {
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 10)
		ys := make([]float64, 10)
		for i := range xs {
			xs[i] = rng.Float64() * 10
			ys[i] = a + b*xs[i]
		}
		// Degenerate draws (all x equal) are legitimately singular.
		allSame := true
		for _, x := range xs[1:] {
			if x != xs[0] {
				allSame = false
				break
			}
		}
		if allSame {
			return true
		}
		r, err := FitPoly(xs, ys, 1)
		if err != nil {
			return false
		}
		tol := 1e-6 * (1 + math.Abs(a) + math.Abs(b))
		return almostEqual(r.Coef[0], a, tol) && almostEqual(r.Coef[1], b, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolveLinearSystemKnown(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := SolveLinearSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-9) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveLinearSystemSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := SolveLinearSystem(a, b); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearSystemBadDims(t *testing.T) {
	if _, err := SolveLinearSystem([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, err := SolveLinearSystem(nil, nil); err == nil {
		t.Fatal("expected error on empty system")
	}
}

func TestSolveLinearSystemDoesNotMutate(t *testing.T) {
	a := [][]float64{{3, 1}, {1, 2}}
	b := []float64{5, 5}
	if _, err := SolveLinearSystem(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 3 || a[1][1] != 2 || b[0] != 5 {
		t.Fatal("inputs mutated")
	}
}

func TestSolveLinearSystemRandomRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := make([][]float64, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		// Diagonally dominant matrix ⇒ well conditioned.
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i] += float64(n) * 10
		}
		b := make([]float64, n)
		for i := range b {
			for j := range x {
				b[i] += a[i][j] * x[j]
			}
		}
		got, err := SolveLinearSystem(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEqual(got[i], x[i], 1e-6*(1+math.Abs(x[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
