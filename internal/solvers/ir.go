package solvers

import (
	"context"
	"math"

	"positlab/internal/arith"
	"positlab/internal/linalg"
)

// IRScaling configures the matrix preparation for mixed-precision
// iterative refinement.
//
// Nil R and Mu <= 0 (or 1) is the naive Table II configuration: the
// matrix is cast directly to the low-precision format with overflow
// clamped to the largest finite value.
//
// With R set (Higham's Algorithm 5 equilibration) and Mu set (the
// Algorithm 4 shift: a power of 4 near 0.1·max for Float16, USEED for
// posits), the factored matrix is fl_low(Mu·R·A·R) — Algorithm 4 of the
// paper.
type IRScaling struct {
	R  []float64
	Mu float64
}

// IROptions controls the refinement loop.
type IROptions struct {
	// Tol is the convergence threshold on the normwise relative
	// backward error ‖b−Ax‖₂/(‖A‖_F·‖x‖₂+‖b‖₂), evaluated in Float64.
	// Zero means 1e-15 (solution accurate to working precision, the
	// paper's Higham-style criterion).
	Tol float64
	// MaxIter caps refinement iterations. Zero means 1000, the paper's
	// "1000+" cap.
	MaxIter int
}

// IRResult reports a mixed-precision iterative refinement run.
type IRResult struct {
	// Iterations until convergence (or the cap).
	Iterations int
	// Converged: backward error reached Tol within MaxIter.
	Converged bool
	// FactorFailed: the low-precision Cholesky broke down (the '-'
	// entries of Tables II/III).
	FactorFailed bool
	// FactorError is ‖R̃ᵀR̃ − Â‖_F/‖Â‖_F of the low-precision factor
	// against the (scaled) matrix it factored — Fig. 10(b).
	FactorError float64
	// BackwardError is the final normwise relative backward error.
	BackwardError float64
	// History records the backward error measured before each
	// correction step (History[0] is the error of the un-refined
	// direct solve), in float64.
	History []float64
	// X is the computed solution (in the original, unscaled variables).
	X []float64
}

// MixedIR runs Algorithm 2 as mixed-precision iterative refinement:
// Cholesky factorization of the (optionally Higham-scaled) matrix in
// the low format, refinement arithmetic entirely in Float64 (the
// paper's working precision, §IV-E).
func MixedIR(a *linalg.Sparse, b []float64, low arith.Format, sc IRScaling, opt IROptions) IRResult {
	res, _ := MixedIRCheckpointed(context.Background(), a, b, low, sc, opt, IRCheckpointOptions{})
	return res
}

// MixedIRCheckpointed is MixedIR with cancellation checkpoints in the
// factorization (per pivot column, see CholeskyCtx) and at the top of
// every refinement iteration, and with durable-checkpoint support.
// When ctx expires the partial result is returned together with the
// context's error. With ck.Every > 0 it hands the refinement state
// (current iterate and backward-error history) to ck.OnCheckpoint at
// that cadence, and with ck.Resume set it refactors the same scaled
// matrix (deterministic, hence identical) and continues refinement
// from the checkpointed iterate. Results are bit-identical to an
// uninterrupted MixedIR run.
func MixedIRCheckpointed(ctx context.Context, a *linalg.Sparse, b []float64, low arith.Format, sc IRScaling, opt IROptions, ck IRCheckpointOptions) (IRResult, error) {
	return refine(ctx, a, b, low, sc, opt, ck, nil)
}

// MixedIRGMRES runs mixed-precision iterative refinement with
// left-preconditioned GMRES corrections, the Carson–Higham GMRES-IR
// scheme: the paper notes (§V-D2) that its Table II failure cases
// "would be less likely to occur" with GMRES solving the correction
// equation instead of a plain triangular solve. The low-precision
// Cholesky factor preconditions a Float64 GMRES that solves each
// correction equation A·d = r, so a low-quality factorization still
// yields usable corrections. The factorization, the scaling and the
// refinement loop are MixedIR's; only the correction solve differs.
func MixedIRGMRES(a *linalg.Sparse, b []float64, low arith.Format, sc IRScaling, opt IROptions, gopt GMRESOptions) IRResult {
	gopt = gopt.fill()
	res, _ := refine(context.Background(), a, b, low, sc, opt, IRCheckpointOptions{}, &gopt)
	return res
}

// refine is the refinement loop of MixedIRCheckpointed and
// MixedIRGMRES. A nil gopt corrects with the triangular solves of the
// low-precision factor; otherwise GMRES, preconditioned by those
// solves, computes each correction.
func refine(ctx context.Context, a *linalg.Sparse, b []float64, low arith.Format, sc IRScaling, opt IROptions, ck IRCheckpointOptions, gopt *GMRESOptions) (IRResult, error) {
	n := a.N
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

	// Cast Â = μ·R·A·R with the paper's clamping rule and factor in low
	// precision.
	ah := scaledDense(a, sc.R, mu)
	ahLow := ah.ToFormat(low, true)
	rLow, err := CholeskyCtx(ctx, ahLow)
	res := IRResult{}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return res, cerr
		}
		res.FactorFailed = true
		return res, nil
	}
	// Promote the factor to float64 once, for the factorization error
	// and the refinement solves, and index its nonzeros for the solves.
	rf := rLow.ToFloat64()
	res.FactorError = factorErrorF64(ah, rf)
	cf := linalg.NewCholF64(rf)

	x := make([]float64, n)
	r := make([]float64, n)
	ax := make([]float64, n)
	d := make([]float64, n)
	// GMRES's preconditioner: M⁻¹v = µ·R∘(Â⁻¹(R∘v)), the map the
	// triangular correction applies to the residual.
	precond := func(v []float64) []float64 {
		w := make([]float64, n)
		correction(cf, sc.R, mu, v, w)
		return w
	}
	normAF := a.NormFrob()
	normB := linalg.Norm2F64(b)

	startK := 1
	if ck.Resume != nil {
		if err := ck.Resume.valid(n); err != nil {
			return res, err
		}
		copy(x, ck.Resume.X)
		res.History = copyFloats(ck.Resume.History)
		res.Iterations = ck.Resume.Iter
		res.X = append([]float64(nil), x...)
		startK = ck.Resume.Iter + 1
	}

	for k := startK; k <= maxIter; k++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		// r = b − A·x against the float64 master matrix.
		a.MatVecF64(x, ax)
		for i := range r {
			r[i] = b[i] - ax[i]
		}
		eta := linalg.Norm2F64(r) / (float64(normAF*linalg.Norm2F64(x)) + normB)
		res.BackwardError = eta
		res.History = append(res.History, eta)
		res.Iterations = k - 1
		res.X = append(res.X[:0], x...)
		if ck.OnIteration != nil {
			ck.OnIteration(k-1, x, eta)
		}
		if eta <= tol {
			res.Converged = true
			return res, nil
		}
		if math.IsNaN(eta) || math.IsInf(eta, 0) {
			return res, nil // diverged
		}
		if gopt == nil {
			correction(cf, sc.R, mu, r, d)
		} else {
			copy(d, gmresSolve(a, precond, r, *gopt))
		}
		for i := range x {
			x[i] += d[i]
		}
		// Pass k is complete: x is the iterate pass k+1 will refine, so
		// this is the resumable snapshot point.
		if ck.Every > 0 && ck.OnCheckpoint != nil && k%ck.Every == 0 {
			cp := &IRCheckpoint{Iter: k, X: copyFloats(x), History: copyFloats(res.History)}
			if err := ck.OnCheckpoint(cp); err != nil {
				return res, err
			}
		}
	}
	res.Iterations = maxIter
	// One final residual check at the cap.
	a.MatVecF64(x, ax)
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	res.BackwardError = linalg.Norm2F64(r) / (float64(normAF*linalg.Norm2F64(x)) + normB)
	res.History = append(res.History, res.BackwardError)
	res.Converged = res.BackwardError <= tol
	res.X = x
	if ck.OnIteration != nil {
		ck.OnIteration(maxIter, x, res.BackwardError)
	}
	return res, nil
}

// scaledDense returns Â = μ·R·A·R in float64, dense (R nil: no
// equilibration).
func scaledDense(a *linalg.Sparse, rs []float64, mu float64) *linalg.Dense {
	ah := a.ToDense()
	if rs != nil {
		for i := 0; i < a.N; i++ {
			for j := 0; j < a.N; j++ {
				ah.Set(i, j, ah.At(i, j)*rs[i]*rs[j])
			}
		}
	}
	if mu != 1 {
		for i := range ah.A {
			ah.A[i] *= mu
		}
	}
	return ah
}

// correction sets d to the refinement correction for residual r: Â·v =
// μ·R∘r is solved with the float64 factor cf of Â, then d = μ·R∘v maps
// back to the original variables (d = μ·R·Â⁻¹·R·r solves A·d ≈ r).
func correction(cf *linalg.CholF64, rs []float64, mu float64, r, d []float64) {
	if rs != nil {
		for i := range d {
			d[i] = rs[i] * r[i]
		}
	} else {
		copy(d, r)
	}
	cf.Solve(d)
	if rs != nil {
		for i := range d {
			d[i] = mu * rs[i] * d[i]
		}
	} else if mu != 1 {
		for i := range d {
			d[i] = mu * d[i]
		}
	}
}
