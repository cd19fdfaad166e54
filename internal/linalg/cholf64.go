package linalg

import (
	"errors"
	"math"
)

// ErrNotPD reports a float64 Cholesky breakdown.
var ErrNotPD = errors.New("linalg: matrix not positive definite")

// CholeskyF64 computes the upper-triangular R with A = RᵀR in float64.
// Used for reference solves and for condition-number measurement of the
// generated suite; the format-generic factorization lives in
// internal/solvers.
func CholeskyF64(a *Dense) (*Dense, error) {
	n := a.N
	r := NewDense(n)
	for j := 0; j < n; j++ {
		s := a.At(j, j)
		for k := 0; k < j; k++ {
			s -= r.At(k, j) * r.At(k, j)
		}
		if !(s > 0) || math.IsInf(s, 0) {
			return nil, ErrNotPD
		}
		piv := math.Sqrt(s)
		r.Set(j, j, piv)
		for i := j + 1; i < n; i++ {
			t := a.At(j, i)
			for k := 0; k < j; k++ {
				t -= r.At(k, j) * r.At(k, i)
			}
			r.Set(j, i, t/piv)
		}
	}
	return r, nil
}

// SolveCholF64 solves (RᵀR)·x = y in float64 given the upper factor
// R, in place: y holds the right-hand side on entry and x on return.
func SolveCholF64(r *Dense, y []float64) {
	n := r.N
	// Forward: Rᵀ·z = y, swept over rows of R. Once z[j] is final, row j
	// subtracts R[j][i]·z[j] from every later entry i, so each entry
	// still subtracts its terms from y[i] in ascending j — the roundings,
	// in order, of the per-entry column sweep — over contiguous rows.
	for j := 0; j < n; j++ {
		rj := r.A[j*n : (j+1)*n]
		zj := y[j] / rj[j]
		y[j] = zj
		yi, rji := y[j+1:], rj[j+1:]
		for i := range yi {
			yi[i] -= rji[i] * zj
		}
	}
	// Backward: R·x = z.
	for i := n - 1; i >= 0; i-- {
		ri := r.A[i*n : (i+1)*n]
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * y[j]
		}
		y[i] = s / ri[i]
	}
}

// CondViaCholesky measures the spectral condition number of an SPD
// matrix: λmax by Lanczos, λmin by inverse power iteration through a
// float64 Cholesky factorization. Unlike plain Lanczos, the inverse
// iteration resolves λmin reliably even at condition numbers ~1e11
// where the small end of the spectrum is exponentially clustered.
func CondViaCholesky(a *Sparse) float64 {
	_, lmax, err := Lanczos(a, 100)
	if err != nil || lmax <= 0 {
		return math.NaN()
	}
	r, err := CholeskyF64(a.ToDense())
	if err != nil {
		return math.NaN()
	}
	n := a.N
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
		if i%2 == 1 {
			v[i] = -v[i]
		}
	}
	var mu float64
	w := make([]float64, n)
	for k := 0; k < 40; k++ {
		copy(w, v)
		SolveCholF64(r, w)
		nw := Norm2F64(w)
		if nw == 0 || math.IsNaN(nw) || math.IsInf(nw, 0) {
			return math.NaN()
		}
		mu = nw // ≈ 1/λmin once converged (‖v‖ = 1)
		for i := range w {
			v[i] = w[i] / nw
		}
	}
	// Rayleigh quotient through A for the final eigenvalue estimate.
	av := make([]float64, n)
	a.MatVecF64(v, av)
	lmin := DotF64(v, av)
	if lmin <= 0 {
		lmin = 1 / mu
	}
	return lmax / lmin
}
