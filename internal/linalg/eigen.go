package linalg

import (
	"fmt"
	"math"
)

// TridiagEigenvalues computes all eigenvalues of the symmetric
// tridiagonal matrix with diagonal d and off-diagonal e (len(e) =
// len(d)-1) using the implicit QL algorithm with Wilkinson shifts
// (the classic tql1). The inputs are not modified; eigenvalues are
// returned in ascending order.
func TridiagEigenvalues(d, e []float64) ([]float64, error) {
	n := len(d)
	if len(e) != n-1 && !(n == 1 && len(e) == 0) {
		return nil, fmt.Errorf("linalg: off-diagonal length %d, want %d", len(e), n-1)
	}
	dd := append([]float64(nil), d...)
	ee := make([]float64, n)
	copy(ee, e)
	ee[n-1] = 0

	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find a small off-diagonal element to split at.
			m := l
			for ; m < n-1; m++ {
				s := math.Abs(dd[m]) + math.Abs(dd[m+1])
				if math.Abs(ee[m]) <= math.SmallestNonzeroFloat64 || math.Abs(ee[m]) <= 1e-16*s {
					break
				}
			}
			if m == l {
				break
			}
			if iter == 60 {
				return nil, fmt.Errorf("linalg: QL failed to converge at row %d", l)
			}
			// Wilkinson shift.
			g := (dd[l+1] - dd[l]) / (2 * ee[l])
			r := math.Hypot(g, 1)
			g = dd[m] - dd[l] + ee[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * ee[i]
				b := float64(c * ee[i])
				r = math.Hypot(f, g)
				ee[i+1] = r
				if r == 0 {
					dd[i+1] -= p
					ee[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = dd[i+1] - p
				r = float64((dd[i]-g)*s) + float64(2*c*b)
				p = float64(s * r)
				dd[i+1] = g + p
				g = float64(c*r) - b
			}
			if r == 0 && m-1 >= l {
				continue
			}
			dd[l] -= p
			ee[l] = g
			ee[m] = 0
		}
	}
	sortFloat64s(dd)
	return dd, nil
}

func sortFloat64s(x []float64) {
	// Insertion sort is fine for the sizes involved (Lanczos subspace
	// dimensions of a few hundred); avoids importing sort for a slice
	// that is nearly ordered anyway.
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}

// Lanczos estimates the extreme eigenvalues of the symmetric matrix A
// (given as a float64 CSR) by m steps of the Lanczos iteration with
// full reorthogonalization, started from a fixed deterministic vector.
// It returns (λmin, λmax) estimates. For SPD matrices λmax converges in
// a few dozen steps; λmin of very ill-conditioned matrices is an
// estimate from below of limited relative accuracy.
func Lanczos(a *Sparse, steps int) (lmin, lmax float64, err error) {
	n := a.N
	if n == 0 {
		return 0, 0, fmt.Errorf("linalg: empty matrix")
	}
	if steps > n {
		steps = n
	}
	if steps < 1 {
		steps = 1
	}
	// Deterministic start vector: alternating pattern, normalized.
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
		if i%3 == 1 {
			v[i] = -v[i]
		}
	}
	nv := Norm2F64(v)
	for i := range v {
		v[i] /= nv
	}

	basis := make([][]float64, 0, steps)
	var alphas, betas []float64
	w := make([]float64, n)
	prev := make([]float64, n)
	beta := 0.0

	for k := 0; k < steps; k++ {
		basis = append(basis, append([]float64(nil), v...))
		a.MatVecF64(v, w)
		if beta != 0 {
			AxpyF64(-beta, prev, w)
		}
		alpha := DotF64(w, v)
		AxpyF64(-alpha, v, w)
		// Full reorthogonalization (twice for stability).
		for pass := 0; pass < 2; pass++ {
			for _, q := range basis {
				AxpyF64(-DotF64(w, q), q, w)
			}
		}
		alphas = append(alphas, alpha)
		nb := Norm2F64(w)
		if nb == 0 || math.IsNaN(nb) {
			break // invariant subspace found: Ritz values are exact
		}
		if k < steps-1 {
			betas = append(betas, nb)
		}
		copy(prev, v)
		for i := range w {
			v[i] = w[i] / nb
		}
		beta = nb
	}
	if len(betas) >= len(alphas) {
		betas = betas[:len(alphas)-1]
	}
	eigs, err := TridiagEigenvalues(alphas, betas)
	if err != nil {
		return 0, 0, err
	}
	return eigs[0], eigs[len(eigs)-1], nil
}

// Norm2Est estimates ‖A‖₂ = λmax for symmetric A via Lanczos.
func Norm2Est(a *Sparse) float64 {
	_, lmax, err := Lanczos(a, 120)
	if err != nil {
		return math.NaN()
	}
	return lmax
}

// CondEst estimates the spectral condition number λmax/λmin for
// symmetric positive definite A via Lanczos.
func CondEst(a *Sparse) float64 {
	lmin, lmax, err := Lanczos(a, 200)
	if err != nil || lmin <= 0 {
		return math.NaN()
	}
	return lmax / lmin
}
