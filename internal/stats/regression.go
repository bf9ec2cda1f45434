package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a regression's normal equations are singular,
// e.g. when all training inputs are identical.
var ErrSingular = errors.New("stats: singular system (training inputs lack variation)")

// ErrTooFewSamples is returned when a fit is requested with fewer samples
// than model coefficients.
var ErrTooFewSamples = errors.New("stats: too few samples for requested degree")

// PolyRegression is a univariate polynomial least-squares model
// y ≈ Σ coef[d]·x^d. It is the concrete form of the paper's per-resource
// regression RG(Usr) (§IV-A): the input is one shared-resource contention
// metric and the output is the component's service time.
type PolyRegression struct {
	// Coef holds the polynomial coefficients, constant term first.
	Coef []float64
	// R2 is the coefficient of determination on the training set, used as
	// the relevance weight w_sr in the combined model (paper Eq. 1).
	R2 float64
}

// FitPoly fits a polynomial of the given degree to samples (xs[i], ys[i])
// using the normal equations. degree 1 is ordinary linear regression.
func FitPoly(xs, ys []float64, degree int) (*PolyRegression, error) {
	if degree < 0 {
		return nil, fmt.Errorf("stats: negative degree %d", degree)
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: mismatched sample lengths %d vs %d", len(xs), len(ys))
	}
	n := degree + 1
	if len(xs) < n {
		return nil, ErrTooFewSamples
	}

	// Build the normal equations A·c = b where A[i][j] = Σ x^(i+j) and
	// b[i] = Σ y·x^i. For the small degrees used here (≤3) this is
	// numerically adequate, especially with mean-centred inputs.
	pow := make([]float64, 2*n-1)
	b := make([]float64, n)
	for k, x := range xs {
		xp := 1.0
		for d := 0; d < 2*n-1; d++ {
			pow[d] += xp
			if d < n {
				b[d] += ys[k] * xp
			}
			xp *= x
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = pow[i+j]
		}
	}
	coef, err := SolveLinearSystem(a, b)
	if err != nil {
		return nil, err
	}

	r := &PolyRegression{Coef: coef}
	r.R2 = rSquared(xs, ys, r.Predict)
	return r, nil
}

// Predict evaluates the fitted polynomial at x using Horner's rule.
func (r *PolyRegression) Predict(x float64) float64 {
	y := 0.0
	for d := len(r.Coef) - 1; d >= 0; d-- {
		y = y*x + r.Coef[d]
	}
	return y
}

// Degree reports the degree of the fitted polynomial.
func (r *PolyRegression) Degree() int { return len(r.Coef) - 1 }

// rSquared computes the coefficient of determination of predict on the
// sample set. A constant target yields R² = 0 by convention (no variance to
// explain).
func rSquared(xs, ys []float64, predict func(float64) float64) float64 {
	meanY := Mean(ys)
	var ssTot, ssRes float64
	for i, x := range xs {
		d := ys[i] - meanY
		ssTot += d * d
		e := ys[i] - predict(x)
		ssRes += e * e
	}
	if ssTot == 0 {
		return 0
	}
	r2 := 1 - ssRes/ssTot
	if r2 < 0 {
		return 0
	}
	return r2
}

// SolveLinearSystem solves A·x = b by Gaussian elimination with partial
// pivoting. A and b are not modified. It returns ErrSingular when no unique
// solution exists.
func SolveLinearSystem(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("stats: bad system dimensions %dx%d", n, len(b))
	}
	// Work on an augmented copy.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("stats: non-square matrix row %d", i)
		}
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	// Back-substitute.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for j := i + 1; j < n; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}
