package shadow

// Shadow diagnosis: run one solver workload twice — once in the
// requested format under the shadow wrapper, once in Float64 as the
// shadow-precision reference — and report where and how fast the two
// trajectories diverge, alongside the per-operation error telemetry
// the wrapper accumulated. The format run itself is bit-identical to
// an undiagnosed run; everything here observes, nothing steers.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/scaling"
	"positlab/internal/solvers"
)

// Options configures one Diagnose run.
type Options struct {
	// Solver is "cg", "cholesky", or "ir".
	Solver string
	// Format is the working (cg, cholesky) or factorization (ir) format.
	Format arith.Format
	// Sample tunes the shadow measurement (SampleEvery 1 = full shadow).
	Sample Config
	// Tol and MaxIter follow the solvers' defaults when zero
	// (cg: 1e-5 / 10·N; ir: 1e-15 / 1000).
	Tol     float64
	MaxIter int
	// Rescale applies the paper's power-of-two system rescaling before
	// cg/cholesky; Higham applies Algorithm 5 equilibration with the
	// format-aware μ before ir.
	Rescale bool
	Higham  bool
	// TracePoints bounds the divergence-trace length (default 32): the
	// first TracePoints iterations are traced densely, later ones at a
	// stride that keeps the total near 2·TracePoints.
	TracePoints int
}

// TracePoint is one entry of the per-iteration divergence trace.
type TracePoint struct {
	Iter int `json:"iter"`
	// Divergence is ‖x_fmt − x_ref‖₂/‖x_ref‖₂ against the
	// shadow-precision iterate of the same iteration (cg) or the
	// shadow-precision solution (ir: the forward-error decay).
	Divergence Float `json:"divergence"`
	// Residual is the iterate's true float64 residual — ‖b−A·x‖₂/‖b‖₂
	// for cg, the normwise relative backward error for ir — measured
	// against the float64 master system, not the format's recurrence.
	Residual Float `json:"residual"`
	// ShadowResidual is the same metric for the shadow-precision
	// iterate: the floor the format run is being compared against.
	ShadowResidual Float `json:"shadow_residual"`
}

// ColumnDiag localizes Cholesky digit loss: the relative error of one
// factor column against the shadow-precision factor, and the decimal
// digits that error leaves.
type ColumnDiag struct {
	Col    int   `json:"col"`
	RelErr Float `json:"rel_err"`
	Digits Float `json:"digits"`
}

// EnvelopeCheck compares the achieved decimal accuracy against the
// format's decimal-digits envelope (the paper's Fig. 3 curves) at the
// solution's representative magnitude.
type EnvelopeCheck struct {
	// Magnitude is the median |x_ref| the envelope is evaluated at.
	Magnitude Float `json:"magnitude"`
	// EnvelopeDigits is what the format can represent at that
	// magnitude; AchievedDigits is −log10 of the forward error.
	EnvelopeDigits Float `json:"envelope_digits"`
	AchievedDigits Float `json:"achieved_digits"`
	// Ratio is achieved/envelope: ≈1 means the solve delivered the
	// format's full representational accuracy, >1 (ir) means
	// refinement recovered digits beyond the factorization format.
	Ratio Float `json:"ratio"`
}

// Report is the result of one shadow diagnosis.
type Report struct {
	Matrix string `json:"matrix"`
	Solver string `json:"solver"`
	Format string `json:"format"`
	N      int    `json:"n"`
	// SampleEvery echoes the effective sampling stride.
	SampleEvery int `json:"sample_every"`
	// Solver progress of the format run (bit-identical to an
	// undiagnosed run of the same request).
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
	Failed     bool `json:"failed"`
	// FinalResidual is the format run's final metric (cg: relative
	// residual; cholesky/ir: backward error); ShadowFinalResidual the
	// shadow-precision run's, the attainable floor.
	FinalResidual       Float `json:"final_residual"`
	ShadowFinalResidual Float `json:"shadow_final_residual"`
	// ForwardError is ‖x_fmt − x_ref‖₂/‖x_ref‖₂ of the final iterates.
	ForwardError Float          `json:"forward_error"`
	Envelope     *EnvelopeCheck `json:"envelope,omitempty"`
	Trace        []TracePoint   `json:"trace,omitempty"`
	// Columns carries the worst Cholesky factor columns by relative
	// error (cholesky only), ascending by column index.
	Columns []ColumnDiag `json:"columns,omitempty"`
	// Telemetry is the shadow wrapper's per-op error telemetry.
	Telemetry Snapshot `json:"telemetry"`
	WallMS    float64  `json:"wall_ms"`
}

// maxColumnDiags bounds the Columns section: all columns are measured,
// the worst by relative error are reported.
const maxColumnDiags = 32

// Diagnose runs one shadow-diagnosed solve of A·x = b and returns the
// report. matrix is a display name only. The context cancels both the
// reference and the format run.
func Diagnose(ctx context.Context, a *linalg.Sparse, b []float64, matrix string, opt Options) (*Report, error) {
	if opt.Format == nil {
		return nil, fmt.Errorf("shadow: Diagnose needs a format")
	}
	if len(b) != a.N {
		return nil, fmt.Errorf("shadow: b has %d entries, matrix is %d×%d", len(b), a.N, a.N)
	}
	if opt.TracePoints <= 0 {
		opt.TracePoints = 32
	}
	solver := strings.ToLower(strings.TrimSpace(opt.Solver))
	rep := &Report{Matrix: matrix, Solver: solver, Format: opt.Format.Name(), N: a.N}
	start := time.Now()
	var err error
	switch solver {
	case "cg":
		err = diagnoseCG(ctx, a, b, opt, rep)
	case "cholesky":
		err = diagnoseCholesky(ctx, a, b, opt, rep)
	case "ir":
		err = diagnoseIR(ctx, a, b, opt, rep)
	default:
		return nil, fmt.Errorf("shadow: unknown solver %q (known: cg, cholesky, ir)", opt.Solver)
	}
	if err != nil {
		return nil, err
	}
	rep.SampleEvery = rep.Telemetry.SampleEvery
	rep.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	return rep, nil
}

// traceStride picks the sparse-tail stride so a full-length run yields
// about 2·tp trace entries (tp dense + maxIter/stride sparse).
func traceStride(maxIter, tp int) int {
	s := maxIter / tp
	if s < 1 {
		s = 1
	}
	return s
}

func shouldTrace(iter, tp, stride int) bool {
	return iter <= tp || iter%stride == 0
}

func diagnoseCG(ctx context.Context, a *linalg.Sparse, b []float64, opt Options, rep *Report) error {
	if opt.Rescale {
		a = a.Clone()
		b = append([]float64(nil), b...)
		scaling.RescaleSystemCG(a, b)
	}
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-5
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 10 * a.N
	}
	stride := traceStride(maxIter, opt.TracePoints)

	// Shadow-precision run: plain Float64, same algorithm, same
	// tolerance. Iterates at the trace points are retained so the
	// format run can be compared iteration-for-iteration.
	f64 := arith.Float64
	refX := map[int][]float64{}
	refRes, err := solvers.CGCheckpointed(ctx, a.ToFormat(f64, false), linalg.VecFromFloat64(f64, b),
		tol, maxIter, solvers.CGCheckpointOptions{
			OnIteration: func(iter int, x, _ []arith.Num) {
				if shouldTrace(iter, opt.TracePoints, stride) {
					refX[iter] = linalg.VecToFloat64(f64, x)
				}
			},
		})
	if err != nil {
		return err
	}

	// Format run under the shadow wrapper. Past the reference run's
	// convergence point the divergence is taken against its final
	// iterate (the trajectory the format run failed to follow).
	sf, rec := Wrap(opt.Format, opt.Sample)
	rec.SetLabel("cg")
	normB := linalg.Norm2F64(b)
	scratch := make([]float64, a.N)
	var trace []TracePoint
	res, err := solvers.CGCheckpointed(ctx, a.ToFormat(sf, false), linalg.VecFromFloat64(sf, b),
		tol, maxIter, solvers.CGCheckpointOptions{
			OnIteration: func(iter int, x, _ []arith.Num) {
				if !shouldTrace(iter, opt.TracePoints, stride) {
					return
				}
				xf := linalg.VecToFloat64(sf, x)
				ref := refX[iter]
				if ref == nil {
					ref = refRes.X
				}
				trace = append(trace, TracePoint{
					Iter:           iter,
					Divergence:     Float(relDist(xf, ref)),
					Residual:       Float(trueResidual(a, b, xf, scratch, normB)),
					ShadowResidual: Float(trueResidual(a, b, ref, scratch, normB)),
				})
			},
		})
	if err != nil {
		return err
	}
	rep.Iterations = res.Iterations
	rep.Converged = res.Converged
	rep.Failed = res.Failed
	rep.FinalResidual = Float(res.RelResidual)
	rep.ShadowFinalResidual = Float(refRes.RelResidual)
	rep.ForwardError = Float(relDist(res.X, refRes.X))
	rep.Trace = trace
	fillEnvelope(rep, opt.Format, refRes.X)
	rep.Telemetry = rec.Snapshot()
	return nil
}

func diagnoseCholesky(ctx context.Context, a *linalg.Sparse, b []float64, opt Options, rep *Report) error {
	if opt.Rescale {
		a = a.Clone()
		b = append([]float64(nil), b...)
		scaling.RescaleSystemCholesky(a, b)
	}
	ad := a.ToDense()
	// The wrapper exists before the reference run, so a report that
	// ends there still carries its (empty) telemetry and stride.
	sf, rec := Wrap(opt.Format, opt.Sample)

	// Shadow-precision factorization and solve in Float64.
	f64 := arith.Float64
	rRef, err := solvers.CholeskyCtx(ctx, ad.ToFormat(f64, false))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		// Not positive definite even at shadow precision: the request
		// is unsolvable, which is a diagnosis, not a server error.
		rep.Failed = true
		rep.Telemetry = rec.Snapshot()
		return nil
	}
	xRef := linalg.VecToFloat64(f64,
		solvers.SolveUpper(rRef, solvers.SolveLowerT(rRef, linalg.VecFromFloat64(f64, b))))
	rep.ShadowFinalResidual = Float(solvers.BackwardError(a, b, xRef))

	// Format factorization under the shadow wrapper.
	rec.SetLabel("factor")
	rFmt, err := solvers.CholeskyCtx(ctx, ad.ToFormat(sf, false))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		// Breakdown in the working format — the '-' entries of the
		// paper's tables. The telemetry up to the failing column is
		// the interesting part of this report.
		rep.Failed = true
		rep.Telemetry = rec.Snapshot()
		return nil
	}
	rep.Columns = columnDiags(rFmt.ToFloat64(), rRef.ToFloat64())

	rec.SetLabel("solve")
	x := solvers.SolveUpper(rFmt, solvers.SolveLowerT(rFmt, linalg.VecFromFloat64(sf, b)))
	xf := linalg.VecToFloat64(sf, x)
	rep.Converged = true
	rep.FinalResidual = Float(solvers.BackwardError(a, b, xf))
	rep.ForwardError = Float(relDist(xf, xRef))
	fillEnvelope(rep, opt.Format, xRef)
	rep.Telemetry = rec.Snapshot()
	return nil
}

func diagnoseIR(ctx context.Context, a *linalg.Sparse, b []float64, opt Options, rep *Report) error {
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-15
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 1000
	}
	sc := solvers.IRScaling{}
	if opt.Higham {
		sc = solvers.IRScaling{
			R:  scaling.HighamEquilibrate(a, 1e-8, 100),
			Mu: scaling.MuFor(opt.Format),
		}
	}

	// Shadow-precision solution: a dense Float64 Cholesky solve of the
	// unscaled system, the target the refinement is converging toward.
	f64 := arith.Float64
	var xRef []float64
	xr, err := solvers.CholeskySolveCtx(ctx, a.ToDense().ToFormat(f64, false), linalg.VecFromFloat64(f64, b))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		// No shadow solution (not positive definite at Float64):
		// divergence entries stay null, the run itself proceeds.
	} else {
		xRef = linalg.VecToFloat64(f64, xr)
		rep.ShadowFinalResidual = Float(solvers.BackwardError(a, b, xRef))
	}

	sf, rec := Wrap(opt.Format, opt.Sample)
	rec.SetLabel("factor")
	stride := traceStride(maxIter, opt.TracePoints)
	var trace []TracePoint
	res, err := solvers.MixedIRCheckpointed(ctx, a, b, sf, sc,
		solvers.IROptions{Tol: tol, MaxIter: maxIter},
		solvers.IRCheckpointOptions{
			OnIteration: func(iter int, x []float64, eta float64) {
				if !shouldTrace(iter, opt.TracePoints, stride) {
					return
				}
				div := math.NaN()
				if xRef != nil {
					div = relDist(x, xRef)
				}
				trace = append(trace, TracePoint{
					Iter:           iter,
					Divergence:     Float(div),
					Residual:       Float(eta),
					ShadowResidual: rep.ShadowFinalResidual,
				})
			},
		})
	if err != nil {
		return err
	}
	rep.Iterations = res.Iterations
	rep.Converged = res.Converged
	rep.Failed = res.FactorFailed
	rep.FinalResidual = Float(res.BackwardError)
	rep.Trace = trace
	if xRef != nil && res.X != nil {
		rep.ForwardError = Float(relDist(res.X, xRef))
		fillEnvelope(rep, opt.Format, xRef)
	}
	rep.Telemetry = rec.Snapshot()
	return nil
}

// --- float64-only metric helpers ---
//
// Their products are converted explicitly (float64(d * d)), so no
// architecture fuses one into an FMA and changes a metric's bits.

// relDist is ‖x − ref‖₂/‖ref‖₂ (absolute when ref is zero).
func relDist(x, ref []float64) float64 {
	var num, den float64
	for i := range x {
		d := x[i] - ref[i]
		num += float64(d * d)
		den += float64(ref[i] * ref[i])
	}
	num = math.Sqrt(num)
	if den == 0 {
		return num
	}
	return num / math.Sqrt(den)
}

// trueResidual is ‖b − A·x‖₂/‖b‖₂ against the float64 master matrix.
func trueResidual(a *linalg.Sparse, b, x, scratch []float64, normB float64) float64 {
	a.MatVecF64(x, scratch)
	var s float64
	for i := range scratch {
		d := b[i] - scratch[i]
		s += float64(d * d)
	}
	r := math.Sqrt(s)
	if normB == 0 {
		return r
	}
	return r / normB
}

// columnDiags measures each upper-factor column against the reference
// factor and returns the worst maxColumnDiags by relative error,
// ascending by column index.
func columnDiags(rf, ref *linalg.Dense) []ColumnDiag {
	n := rf.N
	out := make([]ColumnDiag, 0, n)
	for j := 0; j < n; j++ {
		var num, den float64
		for i := 0; i <= j; i++ {
			d := rf.At(i, j) - ref.At(i, j)
			num += float64(d * d)
			den += float64(ref.At(i, j) * ref.At(i, j))
		}
		e := math.Sqrt(num)
		if den > 0 {
			e /= math.Sqrt(den)
		}
		out = append(out, ColumnDiag{Col: j, RelErr: Float(e), Digits: Float(digitsFromErr(e))})
	}
	if len(out) > maxColumnDiags {
		sort.Slice(out, func(i, j int) bool { return float64(out[i].RelErr) > float64(out[j].RelErr) })
		out = out[:maxColumnDiags]
		sort.Slice(out, func(i, j int) bool { return out[i].Col < out[j].Col })
	}
	return out
}

// digitsFromErr converts a relative error to decimal digits; zero
// error reads as NaN (rendered null: "no digit loss observed").
func digitsFromErr(e float64) float64 {
	if e <= 0 || math.IsNaN(e) || math.IsInf(e, 0) {
		return math.NaN()
	}
	return -math.Log10(e)
}

// fillEnvelope evaluates the format's decimal-digits envelope at the
// reference solution's median magnitude and compares the achieved
// accuracy against it.
func fillEnvelope(rep *Report, f arith.Format, xRef []float64) {
	mag := medianAbs(xRef)
	if mag == 0 || math.IsNaN(mag) || math.IsInf(mag, 0) {
		return
	}
	env := envelopeDigits(f, mag)
	if env <= 0 || math.IsNaN(env) {
		return
	}
	ach := digitsFromErr(float64(rep.ForwardError))
	rep.Envelope = &EnvelopeCheck{
		Magnitude:      Float(mag),
		EnvelopeDigits: Float(env),
		AchievedDigits: Float(ach),
		Ratio:          Float(ach / env),
	}
}

// envelopeDigits is the format's decimal-digits-of-accuracy envelope
// at magnitude v — posit.Config.DecimalDigitsAt for posits (the
// paper's Fig. 3 curves), the minifloat equivalent for IEEE
// minifloats, and the analytic ulp formula for binary32/64.
func envelopeDigits(f arith.Format, v float64) float64 {
	if c, ok := arith.PositConfig(f); ok {
		return c.DecimalDigitsAt(v)
	}
	if m, ok := arith.MiniConfig(f); ok {
		return m.DecimalDigitsAt(v)
	}
	return ieeeDigits(ulpFnFor(f), v)
}

// ieeeDigits is −log10(ulp(v)/(2v)), the digit count of a format with
// local grid spacing ulp(v) — the same half-bracket convention
// DecimalDigitsAt uses.
func ieeeDigits(ulp func(float64) float64, v float64) float64 {
	u := ulp(math.Abs(v))
	if u <= 0 {
		return 0
	}
	return -math.Log10(u / (2 * math.Abs(v)))
}

// medianAbs is the median of |x| over the nonzero entries.
func medianAbs(x []float64) float64 {
	vs := make([]float64, 0, len(x))
	for _, v := range x {
		a := math.Abs(v)
		if a > 0 && !math.IsNaN(a) && !math.IsInf(a, 0) {
			vs = append(vs, a)
		}
	}
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	return vs[len(vs)/2]
}
