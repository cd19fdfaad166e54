// Package core is the library's high-level entry point: solve a
// symmetric positive-definite system Ax = b under any number format of
// the study, with any of the paper's solvers and rescaling strategies,
// and get back the solution together with the quality metrics the
// paper reports.
//
// It ties together the substrates — internal/posit and
// internal/minifloat arithmetic behind internal/arith, the
// internal/linalg matrices, internal/solvers and internal/scaling —
// into the API a downstream user scripts against:
//
//	p, _ := core.ProblemFromMTX("matrix.mtx", nil)
//	sol, _ := core.Solve(p, core.Config{
//	    Format:  "posit32es2",
//	    Method:  core.MethodCG,
//	    Rescale: core.RescaleInfNormPow2,
//	})
//
// SolveCtx is the one dispatcher from a Config to a solver run: positd's
// /v1/solve and its jobs, shadow.Diagnose and the paper's CG, Cholesky
// and IR experiments call it with their observers, checkpoint options
// and phase callback in Hooks, and ParseConfig maps the names positd
// and shadow.Diagnose serve to a Config.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/mmarket"
	"positlab/internal/scaling"
	"positlab/internal/solvers"
)

// Method selects the solver.
type Method int

const (
	// MethodCG is the conjugate gradient method (paper Algorithm 1),
	// run entirely in the chosen format.
	MethodCG Method = iota
	// MethodCholesky is the direct solve by Cholesky factorization and
	// two triangular substitutions (Algorithm 2, one pass), run
	// entirely in the chosen format.
	MethodCholesky
	// MethodMixedIR factors in the chosen (low-precision) format and
	// refines in Float64 (the paper's mixed-precision configuration).
	MethodMixedIR
)

// methodNames are the solver names positd and shadow.Diagnose serve,
// by Method.
var methodNames = [...]string{MethodCG: "cg", MethodCholesky: "cholesky", MethodMixedIR: "ir"}

func (m Method) String() string {
	if m >= 0 && int(m) < len(methodNames) {
		return methodNames[m]
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Rescale selects the paper's matrix preparation.
type Rescale int

const (
	// RescaleNone solves the system as given.
	RescaleNone Rescale = iota
	// RescaleInfNormPow2 scales the whole system by a power of two so
	// ‖A‖∞ ≈ 2^10 (the paper's CG strategy, §V-B).
	RescaleInfNormPow2
	// RescaleDiagAvg divides the system by the nearest power of two of
	// the average |diagonal| (Algorithm 3, for Cholesky).
	RescaleDiagAvg
	// RescaleHigham applies Higham's two-sided equilibration with the
	// format-aware µ shift (Algorithms 4–5, for mixed-precision IR).
	RescaleHigham
)

func (r Rescale) String() string {
	switch r {
	case RescaleNone:
		return "none"
	case RescaleInfNormPow2:
		return "infnorm-pow2"
	case RescaleDiagAvg:
		return "diag-avg-pow2"
	case RescaleHigham:
		return "higham"
	}
	return fmt.Sprintf("rescale(%d)", int(r))
}

// Problem is a symmetric positive-definite system Ax = b.
type Problem struct {
	A *linalg.Sparse
	B []float64
}

// ProblemFromEntries builds a problem from coordinate entries
// (symmetrized) and a right-hand side. A nil b defaults to b = A·x̂
// with x̂ = (1/√n, …), the paper's choice.
func ProblemFromEntries(n int, entries []linalg.Entry, b []float64) (Problem, error) {
	a, err := linalg.NewSparseFromEntries(n, entries, true)
	if err != nil {
		return Problem{}, err
	}
	return problemWithRHS(a, b)
}

// ProblemFromMTX reads a MatrixMarket file. A nil b defaults to b = A·x̂.
func ProblemFromMTX(path string, b []float64) (Problem, error) {
	a, _, err := mmarket.ReadFile(path)
	if err != nil {
		return Problem{}, err
	}
	return problemWithRHS(a, b)
}

func problemWithRHS(a *linalg.Sparse, b []float64) (Problem, error) {
	if b == nil {
		xhat := make([]float64, a.N)
		for i := range xhat {
			xhat[i] = 1 / math.Sqrt(float64(a.N))
		}
		b = make([]float64, a.N)
		a.MatVecF64(xhat, b)
	}
	if len(b) != a.N {
		return Problem{}, fmt.Errorf("core: rhs length %d != n %d", len(b), a.N)
	}
	return Problem{A: a, B: b}, nil
}

// Config selects format, method, rescaling and caps.
type Config struct {
	// Format is an arith registry name: "float64", "float32",
	// "float16", "bfloat16", "posit<N>es<ES>" or "posit(N,ES)".
	Format  string
	Method  Method
	Rescale Rescale
	// Tol is the convergence tolerance: relative residual for CG
	// (default 1e-5, the paper's), backward error for mixed IR
	// (default 1e-15). Ignored by the one-pass Cholesky solve.
	Tol float64
	// MaxIter caps CG (default 10·N) and IR (default 1000).
	MaxIter int
}

// Caps returns the tolerance and iteration cap a run of c uses on an
// n×n system: Tol and MaxIter, or the method's defaults where they are
// zero.
func (c Config) Caps(n int) (tol float64, maxIter int) {
	tol, maxIter = c.Tol, c.MaxIter
	if tol == 0 {
		tol = 1e-15
		if c.Method == MethodCG {
			tol = 1e-5
		}
	}
	if maxIter == 0 {
		maxIter = 1000
		if c.Method == MethodCG {
			maxIter = 10 * n
		}
	}
	return tol, maxIter
}

// resolve validates c and returns its format.
func (c Config) resolve() (arith.Format, error) {
	f, err := arith.ByName(c.Format)
	if err != nil {
		return nil, err
	}
	if c.Method < 0 || int(c.Method) >= len(methodNames) {
		return nil, fmt.Errorf("core: unknown method %v", c.Method)
	}
	if c.Rescale == RescaleHigham && c.Method != MethodMixedIR {
		return nil, fmt.Errorf("core: Higham rescaling applies to the mixed-precision refinement method only")
	}
	// CG squares tol into its threshold, so tol -1 would stop at x = 0.
	if c.Tol < 0 {
		return nil, fmt.Errorf("tol must be >= 0, got %g", c.Tol)
	}
	if c.MaxIter < 0 {
		return nil, fmt.Errorf("max_iter must be >= 0, got %d", c.MaxIter)
	}
	return f, nil
}

// ParseConfig maps a solve as positd and shadow.Diagnose name it to a
// validated Config. solver is "cg", "cholesky" or "ir", in any case and
// with surrounding space; format an arith registry name. rescale selects
// the solver's power-of-two preparation: the ∞-norm scaling for cg
// (Fig. 7), Algorithm 3 for cholesky (Fig. 9). higham selects
// Algorithms 4–5 for ir (Table III). A preparation the solver does not
// take — rescale with ir, higham with cg or cholesky — is an error
// naming both. tol and maxIter are Config's Tol and MaxIter.
func ParseConfig(solver, format string, rescale, higham bool, tol float64, maxIter int) (Config, error) {
	if _, err := arith.ByName(format); err != nil {
		return Config{}, err
	}
	m := Method(slices.Index(methodNames[:], strings.ToLower(strings.TrimSpace(solver))))
	if m < 0 {
		return Config{}, fmt.Errorf("unknown solver %q (known: %s)", solver, strings.Join(methodNames[:], ", "))
	}
	cfg := Config{Format: format, Method: m, Tol: tol, MaxIter: maxIter}
	switch {
	case rescale && m == MethodMixedIR:
		return Config{}, fmt.Errorf("solver ir does not take rescale (ir scales with higham)")
	case higham && m != MethodMixedIR:
		return Config{}, fmt.Errorf("solver %s does not take higham (only ir does)", m)
	case rescale && m == MethodCG:
		cfg.Rescale = RescaleInfNormPow2
	case rescale && m == MethodCholesky:
		cfg.Rescale = RescaleDiagAvg
	case higham && m == MethodMixedIR:
		cfg.Rescale = RescaleHigham
	}
	if _, err := cfg.resolve(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Hooks are what a caller threads into a run without changing its
// bits.
type Hooks struct {
	// Observers watch the working format's arithmetic through
	// arith.Observe. With none the format runs unwrapped: an observed
	// format routes every kernel through the wrapper, observers or not.
	Observers []arith.Observer
	// CG and IR carry checkpoint cadence, resume state and the
	// per-iteration callback into a MethodCG or MethodMixedIR run.
	CG solvers.CGCheckpointOptions
	IR solvers.IRCheckpointOptions
	// Phase, when set, is told the phase the run enters: "cg" before
	// the CG iteration, "factor" before the Cholesky factorization
	// (MethodCholesky and MethodMixedIR) and "solve" before
	// MethodCholesky's triangular solves.
	Phase func(string)
}

func (h Hooks) phase(name string) {
	if h.Phase != nil {
		h.Phase(name)
	}
}

// Solution reports a solve.
type Solution struct {
	// X is the computed solution in the original (unscaled) variables;
	// CG's last iterate when it failed, nil when a factorization broke
	// down.
	X []float64
	// Iterations of CG or IR; 0 for the direct solve.
	Iterations int
	// Converged for the iterative methods; true for a successful
	// direct solve.
	Converged bool
	// Failed reports an arithmetic exception (CG), a breakdown or a
	// non-finite solution (Cholesky), or a breakdown of the
	// low-precision factorization (mixed IR). SolveCtx reports it in
	// place of an error; Solve returns an error for it.
	Failed bool
	// BackwardError is the paper's quality metric, in Float64 against
	// the original system: ‖b−Ax‖₂/‖b‖₂ for CG and Cholesky, the
	// refinement's normwise ‖b−Ax‖₂/(‖A‖_F·‖x‖₂+‖b‖₂) for mixed IR.
	BackwardError float64
	// RelResidual is CG's final recurrence residual ‖r‖/‖b‖.
	RelResidual float64
	// FactorError is mixed IR's low-precision factorization error
	// ‖R̃ᵀR̃ − Â‖_F/‖Â‖_F (Fig. 10(b)).
	FactorError float64
	// History is CG's per-iteration residual or IR's per-step backward
	// error.
	History []float64
	// Factor is MethodCholesky's upper factor in the working format,
	// when the factorization completed.
	Factor *linalg.DenseNum
	// ScaleFactor is the scalar applied by the pow2 rescalings (1 when
	// none).
	ScaleFactor float64
	// Format echoes the resolved format name.
	Format string
}

// Solve runs the configured solver. Arithmetic failures (posit NaR,
// IEEE NaN/Inf, factorization breakdown) return an error; an iterative
// method that merely hits its cap returns Converged=false and no error.
func Solve(p Problem, cfg Config) (Solution, error) {
	sol, err := SolveCtx(context.Background(), p, cfg, Hooks{})
	if err != nil || !sol.Failed {
		return sol, err
	}
	switch cfg.Method {
	case MethodCG:
		return Solution{}, fmt.Errorf("core: CG in %s hit an arithmetic exception after %d iterations", sol.Format, sol.Iterations)
	case MethodCholesky:
		return Solution{}, fmt.Errorf("core: Cholesky in %s: %w", sol.Format, solvers.ErrNotPositiveDefinite)
	}
	return Solution{}, fmt.Errorf("core: %s factorization failed", sol.Format)
}

// SolveCtx runs the configured solver: it resolves the format, applies
// the rescaling or Higham's set-up and the default caps, runs the
// method in the format (observed by h.Observers) and computes the
// result metrics. A breakdown or arithmetic exception is a result,
// Failed; the error is an invalid cfg or problem, the context's error,
// or one from a checkpoint hook. Pow2 rescaling is exact, so every
// metric measured on the original system equals its value on the
// rescaled one.
func SolveCtx(ctx context.Context, p Problem, cfg Config, h Hooks) (Solution, error) {
	f, err := cfg.resolve()
	if err != nil {
		return Solution{}, err
	}
	if p.A == nil || p.A.N == 0 {
		return Solution{}, fmt.Errorf("core: empty problem")
	}
	if len(p.B) != p.A.N {
		return Solution{}, fmt.Errorf("core: rhs length %d != n %d", len(p.B), p.A.N)
	}
	fi := f
	if len(h.Observers) > 0 {
		fi = arith.Observe(f, h.Observers...)
	}

	a, b := p.A, p.B
	sol := Solution{Format: f.Name(), ScaleFactor: 1}
	switch cfg.Rescale {
	case RescaleInfNormPow2:
		a, b = a.Clone(), slices.Clone(b)
		sol.ScaleFactor = scaling.RescaleSystemCG(a, b)
	case RescaleDiagAvg:
		a, b = a.Clone(), slices.Clone(b)
		sol.ScaleFactor = scaling.RescaleSystemCholesky(a, b)
	}
	tol, maxIter := cfg.Caps(a.N)

	switch cfg.Method {
	case MethodCG:
		h.phase("cg")
		res, err := solvers.CGCheckpointed(ctx, a.ToFormat(fi, false), linalg.VecFromFloat64(fi, b), tol, maxIter, h.CG)
		if err != nil {
			return Solution{}, err
		}
		sol.X, sol.Iterations, sol.Converged, sol.Failed = res.X, res.Iterations, res.Converged, res.Failed
		sol.RelResidual, sol.History = res.RelResidual, res.History
		sol.BackwardError = solvers.BackwardError(p.A, p.B, sol.X)

	case MethodCholesky:
		an, bn := a.ToDense().ToFormat(fi, false), linalg.VecFromFloat64(fi, b)
		h.phase("factor")
		r, err := solvers.CholeskyCtx(ctx, an)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return Solution{}, cerr
			}
			sol.Failed = true // breakdown: the '-' entries of the paper's tables
			break
		}
		sol.Factor = r
		h.phase("solve")
		x := solvers.SolveUpper(r, solvers.SolveLowerT(r, bn))
		if linalg.HasBad(f, x) {
			sol.Failed = true // the solution overflowed the format
			break
		}
		sol.X = linalg.VecToFloat64(f, x)
		sol.Converged = true
		sol.BackwardError = solvers.BackwardError(p.A, p.B, sol.X)

	case MethodMixedIR:
		var sc solvers.IRScaling
		if cfg.Rescale == RescaleHigham {
			sc = solvers.IRScaling{R: scaling.HighamEquilibrate(a, 1e-8, 100), Mu: scaling.MuFor(f)}
		}
		h.phase("factor")
		res, err := solvers.MixedIRCheckpointed(ctx, a, b, fi, sc, solvers.IROptions{Tol: tol, MaxIter: maxIter}, h.IR)
		if err != nil {
			return Solution{}, err
		}
		sol.X, sol.Iterations, sol.Converged, sol.Failed = res.X, res.Iterations, res.Converged, res.FactorFailed
		sol.BackwardError, sol.FactorError, sol.History = res.BackwardError, res.FactorError, res.History
	}
	return sol, nil
}
