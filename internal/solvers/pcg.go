package solvers

import (
	"positlab/internal/arith"
	"positlab/internal/linalg"
)

// PCG runs the conjugate gradient method with Jacobi (diagonal)
// preconditioning in the matrix's format.
//
// This exists as an ablation against the paper's rescaling strategy:
// Jacobi preconditioning improves the *conditioning* of the iteration
// like two-sided diagonal scaling would, but leaves the matrix entries
// and iterate magnitudes where they are — so if posit(32,2)'s trouble
// on large-norm systems were a conditioning problem, PCG would fix it,
// and if it is a representation-range problem (the paper's claim),
// only the explicit rescaling will. The ablation benchmark
// (BenchmarkAblationPrecondVsRescale) measures exactly this.
func PCG(a *linalg.SparseNum, diag []arith.Num, b []arith.Num, tol float64, maxIter int) CGResult {
	f := a.F
	n := a.N

	// Inverse diagonal; a zero or exceptional pivot fails immediately.
	invD := make([]arith.Num, n)
	for i := range invD {
		invD[i] = f.Div(f.One(), diag[i])
		if f.Bad(invD[i]) {
			return CGResult{Failed: true, X: make([]float64, n)}
		}
	}
	applyPrec := func(dst, src []arith.Num) {
		for i := range dst {
			dst[i] = f.Mul(invD[i], src[i])
		}
	}

	x := linalg.NewVec(f, n)
	r := append([]arith.Num(nil), b...)
	z := linalg.NewVec(f, n)
	applyPrec(z, r)
	p := append([]arith.Num(nil), z...)
	ap := linalg.NewVec(f, n)

	rz := linalg.Dot(f, r, z)
	normB2 := f.ToFloat64(linalg.Dot(f, b, b))
	thresh := tol * tol * normB2

	res := CGResult{}
	if f.Bad(rz) {
		res.Failed = true
		res.X = linalg.VecToFloat64(f, x)
		return res
	}
	if rr := f.ToFloat64(linalg.Dot(f, r, r)); rr <= thresh {
		// x₀ = 0 already meets tol (tol ≥ 1, or b = 0): its residual
		// is ‖b‖/‖b‖ = 1, or 0 when b = 0.
		res.Converged = true
		if normB2 > 0 {
			res.RelResidual = sqrtf(rr / normB2)
		}
		res.X = linalg.VecToFloat64(f, x)
		return res
	}

	for k := 0; k < maxIter; k++ {
		a.MatVec(p, ap)
		pap := linalg.Dot(f, p, ap)
		alpha := f.Div(rz, pap)
		if f.Bad(alpha) {
			res.Iterations = k + 1
			res.Failed = true
			break
		}
		linalg.Axpy(f, alpha, p, x)
		linalg.Axpy(f, f.Neg(alpha), ap, r)
		rr := linalg.Dot(f, r, r)
		if f.Bad(rr) {
			res.Iterations = k + 1
			res.Failed = true
			break
		}
		res.Iterations = k + 1
		if f.ToFloat64(rr) <= thresh {
			res.Converged = true
			if normB2 > 0 {
				// Reporting metric, not iteration state (same contract
				// as CG).
				res.RelResidual = sqrtf(f.ToFloat64(rr) / normB2) //lint:allow precision final residual is a float64 reporting metric
			}
			break
		}
		applyPrec(z, r)
		rzNew := linalg.Dot(f, r, z)
		beta := f.Div(rzNew, rz)
		if f.Bad(beta) {
			res.Failed = true
			break
		}
		for i := range p {
			p[i] = f.Add(z[i], f.Mul(beta, p[i]))
		}
		rz = rzNew
	}
	res.X = linalg.VecToFloat64(f, x)
	return res
}
