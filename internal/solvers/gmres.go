package solvers

import (
	"math"

	"positlab/internal/linalg"
)

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
			t := float64(cs[i]*hj[i]) + float64(sn[i]*hj[i+1])
			hj[i+1] = float64(-sn[i]*hj[i]) + float64(cs[i]*hj[i+1])
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
			s -= float64(h[j2][i] * y[j2])
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
