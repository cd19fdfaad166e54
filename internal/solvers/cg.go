// Package solvers implements the paper's three solver workloads over
// any arith.Format: the conjugate gradient method (Algorithm 1),
// Cholesky factorization with triangular solves (Algorithm 2), and
// mixed-precision iterative refinement with a low-precision
// factorization and Float64 refinement (§IV-E, §V-D).
package solvers

import (
	"context"

	"positlab/internal/arith"
	"positlab/internal/linalg"
)

// CGResult reports a conjugate-gradient run.
type CGResult struct {
	// Iterations performed (the paper's Fig. 6/7 y-axis).
	Iterations int
	// Converged reports that the recurrence residual satisfied
	// ‖r‖ ≤ tol·‖b‖ within the iteration cap.
	Converged bool
	// Failed reports an arithmetic exception (posit NaR, IEEE NaN/Inf)
	// during the iteration, which also means not converged.
	Failed bool
	// RelResidual is the final recurrence-residual ratio ‖r‖/‖b‖ as
	// computed in the working format.
	RelResidual float64
	// History records ‖r‖/‖b‖ after each completed iteration, measured
	// in float64 like every reporting metric. History[k] is the state
	// after iteration k+1; a run that fails mid-iteration has no entry
	// for the failing step.
	History []float64
	// X is the computed solution, exact float64 images of the format
	// iterates.
	X []float64
}

// CG runs Algorithm 1 of the paper in the matrix's format: plain
// conjugate gradients with the residual maintained by the recurrence
// r ← r − α·A·p and the convergence test ‖r‖ ≤ tol·‖b‖ evaluated on the
// recurrence residual (the paper notes and accepts the slight
// premature-convergence bias this brings, §IV-C).
func CG(a *linalg.SparseNum, b []arith.Num, tol float64, maxIter int) CGResult {
	res, _ := CGCtx(context.Background(), a, b, tol, maxIter)
	return res
}

// CGCtx is CG with a cancellation checkpoint at the top of every
// iteration: when ctx expires the loop stops promptly and the partial
// result is returned together with the context's error. The iterates
// are bit-identical to CG's for the iterations that did run.
func CGCtx(ctx context.Context, a *linalg.SparseNum, b []arith.Num, tol float64, maxIter int) (CGResult, error) {
	return CGCheckpointed(ctx, a, b, tol, maxIter, CGCheckpointOptions{})
}

// CGCheckpointed is CGCtx with durable-checkpoint support: with
// ck.Every > 0 it hands the complete iteration state to
// ck.OnCheckpoint at that cadence, and with ck.Resume set it continues
// a previous run from its checkpoint instead of starting at x₀ = 0.
// Checkpoint emission never perturbs the iteration, and a resumed run
// produces iterates bit-identical to the uninterrupted run's from the
// checkpointed iteration onward.
func CGCheckpointed(ctx context.Context, a *linalg.SparseNum, b []arith.Num, tol float64, maxIter int, ck CGCheckpointOptions) (CGResult, error) {
	f := a.F
	n := a.N

	var (
		x, r, p []arith.Num
		rr      arith.Num
		normB2  float64
	)
	ap := linalg.NewVec(f, n)
	start := 0
	res := CGResult{}

	if ck.Resume != nil {
		if err := ck.Resume.valid(n); err != nil {
			return res, err
		}
		x = copyNums(ck.Resume.X)
		r = copyNums(ck.Resume.R)
		p = copyNums(ck.Resume.P)
		rr = ck.Resume.RR
		start = ck.Resume.Iter
		res.Iterations = start
		res.History = copyFloats(ck.Resume.History)
		// ‖b‖² is not part of the checkpoint: recompute it exactly as
		// the fresh path does (x₀ = 0 ⇒ r₀ = b there), so the threshold
		// and the float64 history denominators are identical.
		normB2 = f.ToFloat64(linalg.Dot(f, b, b))
	} else {
		x = linalg.NewVec(f, n)
		r = append([]arith.Num(nil), b...)
		p = append([]arith.Num(nil), b...)
		rr = linalg.Dot(f, r, r)
		normB2 = f.ToFloat64(rr) // x₀ = 0 ⇒ r₀ = b
	}
	thresh := tol * tol * normB2

	if ck.Resume == nil {
		if f.Bad(rr) {
			res.Failed = true
			res.X = linalg.VecToFloat64(f, x)
			return res, nil
		}
		// x₀ = 0 may already meet tol (tol ≥ 1, or b = 0): no
		// iteration runs, and the residual is reported below.
		res.Converged = f.ToFloat64(rr) <= thresh
	}

	for k := start; k < maxIter && !res.Converged; k++ {
		if err := ctx.Err(); err != nil {
			res.X = linalg.VecToFloat64(f, x)
			return res, err
		}
		a.MatVec(p, ap)
		pap := linalg.Dot(f, p, ap)
		alpha := f.Div(rr, pap)
		if f.Bad(alpha) {
			res.Iterations = k + 1
			res.Failed = true
			break
		}
		linalg.Axpy(f, alpha, p, x)         // x += α p
		linalg.Axpy(f, f.Neg(alpha), ap, r) // r -= α Ap
		rrNew := linalg.Dot(f, r, r)
		if f.Bad(rrNew) {
			res.Iterations = k + 1
			res.Failed = true
			break
		}
		res.Iterations = k + 1
		// Reporting metric, not iteration state: the per-iteration
		// residual history is measured in float64 (normB2 > 0 inside
		// the loop: rr > thresh ≥ 0 at entry).
		res.History = append(res.History, sqrtf(f.ToFloat64(rrNew)/normB2)) //lint:allow precision residual history is a float64 reporting metric
		if ck.OnIteration != nil {
			ck.OnIteration(k+1, x, r)
		}
		if f.ToFloat64(rrNew) <= thresh {
			res.Converged = true
			rr = rrNew
			break
		}
		beta := f.Div(rrNew, rr)
		if f.Bad(beta) {
			res.Failed = true
			break
		}
		// p = r + β p (one fused kernel pass; fl(fl(β·p)+r) is
		// bit-identical to the scalar Add(r, Mul(β, p)) form).
		linalg.MulAddVec(f, beta, p, r, p)
		rr = rrNew
		// The loop state for iteration k+1 is now complete — the only
		// point where a snapshot can resume without re-running any
		// arithmetic of iteration k.
		if ck.Every > 0 && ck.OnCheckpoint != nil && (k+1)%ck.Every == 0 {
			cp := &CGCheckpoint{
				Iter:    k + 1,
				X:       copyNums(x),
				R:       copyNums(r),
				P:       copyNums(p),
				RR:      rr,
				History: copyFloats(res.History),
			}
			if err := ck.OnCheckpoint(cp); err != nil {
				res.X = linalg.VecToFloat64(f, x)
				return res, err
			}
		}
	}
	res.X = linalg.VecToFloat64(f, x)
	if normB2 > 0 {
		// Reporting metric, not iteration state: the final relative
		// residual is measured in float64 like every other metric.
		res.RelResidual = sqrtf(f.ToFloat64(rr) / normB2) //lint:allow precision final residual is a float64 reporting metric
	}
	return res, nil
}

func sqrtf(x float64) float64 {
	if x < 0 {
		return 0
	}
	return sqrt64(x)
}
