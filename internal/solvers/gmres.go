package solvers

import (
	"math"

	"positlab/internal/arith"
	"positlab/internal/linalg"
)

// GMRES-IR: the paper notes (§V-D2) that its Table II failure cases
// "would be less likely to occur" with GMRES solving the correction
// equation instead of a plain triangular solve — the Carson–Higham
// GMRES-IR scheme. MixedIRGMRES implements it: the low-precision
// Cholesky factor preconditions a Float64 GMRES that solves each
// correction equation A·d = r, so a low-quality factorization still
// yields usable corrections.

// GMRESOptions tunes the inner correction solver.
type GMRESOptions struct {
	// InnerIter caps the Krylov dimension per correction solve
	// (default 20; no restarts — IR's outer loop plays that role).
	InnerIter int
	// InnerTol is the relative residual reduction demanded of the
	// preconditioned system (default 1e-4).
	InnerTol float64
}

func (o GMRESOptions) fill() GMRESOptions {
	if o.InnerIter == 0 {
		o.InnerIter = 20
	}
	if o.InnerTol == 0 {
		o.InnerTol = 1e-4
	}
	return o
}

// MixedIRGMRES runs mixed-precision iterative refinement with
// left-preconditioned GMRES corrections. The factorization stage and
// the scaling semantics are identical to MixedIR; only the correction
// solve differs.
func MixedIRGMRES(a *linalg.Sparse, b []float64, low arith.Format, sc IRScaling, opt IROptions, gopt GMRESOptions) IRResult {
	n := a.N
	gopt = gopt.fill()
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-15
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 1000
	}
	mu := sc.Mu
	if mu <= 0 {
		mu = 1
	}

	ah := scaledDense(a, sc.R, mu)
	ahLow := ah.ToFormat(low, true)
	rLow, err := Cholesky(ahLow)
	res := IRResult{}
	if err != nil {
		res.FactorFailed = true
		return res
	}
	rf := rLow.ToFloat64()
	res.FactorError = factorErrorF64(ah, rf)
	cf := linalg.NewCholF64(rf)

	// Preconditioner application: M⁻¹v = µ·R∘(Â⁻¹(R∘v)), the same map
	// MixedIR uses as its whole correction.
	applyM := func(v []float64) []float64 {
		w := make([]float64, n)
		correction(cf, sc.R, mu, v, w)
		return w
	}

	x := make([]float64, n)
	r := make([]float64, n)
	ax := make([]float64, n)
	normAF := a.NormFrob()
	normB := linalg.Norm2F64(b)

	for k := 1; k <= maxIter; k++ {
		a.MatVecF64(x, ax)
		for i := range r {
			r[i] = b[i] - ax[i]
		}
		eta := linalg.Norm2F64(r) / (normAF*linalg.Norm2F64(x) + normB)
		res.BackwardError = eta
		res.Iterations = k - 1
		res.X = append(res.X[:0], x...)
		if eta <= tol {
			res.Converged = true
			return res
		}
		if math.IsNaN(eta) || math.IsInf(eta, 0) {
			return res
		}
		d := gmresSolve(a, applyM, r, gopt)
		for i := range x {
			x[i] += d[i]
		}
	}
	res.Iterations = maxIter
	a.MatVecF64(x, ax)
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	res.BackwardError = linalg.Norm2F64(r) / (normAF*linalg.Norm2F64(x) + normB)
	res.Converged = res.BackwardError <= tol
	res.X = x
	return res
}

// gmresSolve runs left-preconditioned GMRES on A·d = r in Float64:
// minimize ‖M⁻¹(r − A·d)‖ over the Krylov space of M⁻¹A.
func gmresSolve(a *linalg.Sparse, applyM func([]float64) []float64, r []float64, opt GMRESOptions) []float64 {
	n := a.N
	m := opt.InnerIter

	z0 := applyM(r)
	beta := linalg.Norm2F64(z0)
	d := make([]float64, n)
	if beta == 0 || math.IsNaN(beta) {
		return d
	}

	// Arnoldi with modified Gram-Schmidt and Givens-rotated
	// Hessenberg for the least-squares residual.
	v := make([][]float64, 1, m+1)
	v[0] = make([]float64, n)
	for i := range z0 {
		v[0][i] = z0[i] / beta
	}
	h := make([][]float64, 0, m) // h[j] has length j+2
	cs := make([]float64, 0, m)
	sn := make([]float64, 0, m)
	g := make([]float64, 1, m+1)
	g[0] = beta

	iters := 0
	for j := 0; j < m; j++ {
		w := make([]float64, n)
		a.MatVecF64(v[j], w)
		w = applyM(w)
		hj := make([]float64, j+2)
		for i := 0; i <= j; i++ {
			hj[i] = linalg.DotF64(w, v[i])
			linalg.AxpyF64(-hj[i], v[i], w)
		}
		wnorm := linalg.Norm2F64(w)
		hj[j+1] = wnorm

		// Apply accumulated rotations to the new column, then a new
		// rotation annihilating the subdiagonal entry.
		for i := 0; i < j; i++ {
			t := cs[i]*hj[i] + sn[i]*hj[i+1]
			hj[i+1] = -sn[i]*hj[i] + cs[i]*hj[i+1]
			hj[i] = t
		}
		denom := math.Hypot(hj[j], hj[j+1])
		var c, s float64
		if denom == 0 {
			c, s = 1, 0
		} else {
			c, s = hj[j]/denom, hj[j+1]/denom
		}
		cs = append(cs, c)
		sn = append(sn, s)
		hj[j] = denom
		hj[j+1] = 0
		h = append(h, hj)
		g = append(g, -s*g[j])
		g[j] = c * g[j]
		iters = j + 1

		// Converged, broke down, or found an invariant subspace.
		if math.Abs(g[j+1])/beta <= opt.InnerTol ||
			wnorm == 0 || math.IsNaN(wnorm) || denom == 0 {
			break
		}
		vj := make([]float64, n)
		for i := range w {
			vj[i] = w[i] / wnorm
		}
		v = append(v, vj)
	}

	// Back-substitute y from the triangular system H y = g.
	y := make([]float64, iters)
	for i := iters - 1; i >= 0; i-- {
		s := g[i]
		for j2 := i + 1; j2 < iters; j2++ {
			s -= h[j2][i] * y[j2]
		}
		if h[i][i] == 0 {
			y[i] = 0
			continue
		}
		y[i] = s / h[i][i]
	}
	for i := 0; i < iters; i++ {
		linalg.AxpyF64(y[i], v[i], d)
	}
	return d
}
