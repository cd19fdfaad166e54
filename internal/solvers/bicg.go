package solvers

import (
	"context"

	"positlab/internal/arith"
	"positlab/internal/linalg"
)

// BiCGResult reports a biconjugate-gradient run. The paper's analysis
// section (§VI) hypothesizes that Bi-CG's larger intermediate iterates
// limit rescaling as a stabilization tool; MaxIterate records the
// largest |component| seen across all iterate vectors so the
// dynamic-range claim can be measured directly.
type BiCGResult struct {
	Iterations  int
	Converged   bool
	Failed      bool
	RelResidual float64
	// MaxIterate is the largest magnitude that appeared in any of x,
	// r, r̂, p, p̂ during the run (as float64).
	MaxIterate float64
	X          []float64
}

// BiCG runs the unpreconditioned biconjugate gradient method in the
// matrix's format, with the dual recurrence driven by true Aᵀ
// products, so general (nonsymmetric) systems are supported — e.g. the
// convection-diffusion operators of the §VI iterate-growth experiment.
// Breakdown (zero <r̂,r> or <p̂,Ap>) reports Failed. ctx is checked at
// the top of every iteration: when it expires the partial result is
// returned together with the context's error.
func BiCG(ctx context.Context, a *linalg.SparseNum, b []arith.Num, tol float64, maxIter int) (BiCGResult, error) {
	f := a.F
	n := a.N

	x := linalg.NewVec(f, n)
	r := append([]arith.Num(nil), b...)
	rh := append([]arith.Num(nil), b...)
	p := append([]arith.Num(nil), b...)
	ph := append([]arith.Num(nil), b...)
	ap := linalg.NewVec(f, n)
	atph := linalg.NewVec(f, n)

	res := BiCGResult{}
	track := func(vs ...[]arith.Num) {
		for _, v := range vs {
			m := f.ToFloat64(linalg.NormInf(f, v))
			if m > res.MaxIterate {
				res.MaxIterate = m
			}
		}
	}
	track(r, p)

	rho := linalg.Dot(f, rh, r)
	normB2 := f.ToFloat64(linalg.Dot(f, b, b))
	thresh := tol * tol * normB2
	if f.Bad(rho) {
		res.Failed = true
		res.X = linalg.VecToFloat64(f, x)
		return res, nil
	}
	if rr := f.ToFloat64(linalg.Dot(f, r, r)); rr <= thresh {
		// x₀ = 0 already meets tol (tol ≥ 1, or b = 0): its residual
		// is ‖b‖/‖b‖ = 1, or 0 when b = 0.
		res.Converged = true
		res.RelResidual = safeRatioSqrt(rr, normB2) //lint:allow xprecision RelResidual is a float64 reporting metric, not iteration state
		res.X = linalg.VecToFloat64(f, x)
		return res, nil
	}

	for k := 0; k < maxIter; k++ {
		if err := ctx.Err(); err != nil {
			res.X = linalg.VecToFloat64(f, x)
			return res, err
		}
		a.MatVec(p, ap)
		a.MatVecT(ph, atph)
		den := linalg.Dot(f, ph, ap)
		alpha := f.Div(rho, den)
		if f.Bad(alpha) {
			res.Iterations = k + 1
			res.Failed = true
			break
		}
		linalg.Axpy(f, alpha, p, x)
		linalg.Axpy(f, f.Neg(alpha), ap, r)
		linalg.Axpy(f, f.Neg(alpha), atph, rh)
		track(x, r, rh)

		rr := linalg.Dot(f, r, r)
		if f.Bad(rr) {
			res.Iterations = k + 1
			res.Failed = true
			break
		}
		res.Iterations = k + 1
		res.RelResidual = safeRatioSqrt(f.ToFloat64(rr), normB2) //lint:allow xprecision RelResidual is a float64 reporting metric, not iteration state
		if f.ToFloat64(rr) <= thresh {
			res.Converged = true
			break
		}
		rhoNew := linalg.Dot(f, rh, r)
		beta := f.Div(rhoNew, rho)
		if f.Bad(beta) || f.IsZero(rhoNew) {
			res.Failed = true
			break
		}
		for i := range p {
			p[i] = f.Add(r[i], f.Mul(beta, p[i]))
			ph[i] = f.Add(rh[i], f.Mul(beta, ph[i]))
		}
		track(p, ph)
		rho = rhoNew
	}
	res.X = linalg.VecToFloat64(f, x)
	return res, nil
}

func safeRatioSqrt(num, den float64) float64 {
	if den <= 0 || num < 0 {
		return 0
	}
	return sqrt64(num / den)
}
