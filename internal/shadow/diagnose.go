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
	"time"

	"positlab/internal/arith"
	"positlab/internal/core"
	"positlab/internal/linalg"
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
// report. matrix is a display name only; opt.Format must be a
// registered format (arith.ByName resolves its Name). Both runs go
// through core.SolveCtx, which the context cancels.
func Diagnose(ctx context.Context, a *linalg.Sparse, b []float64, matrix string, opt Options) (*Report, error) {
	if opt.Format == nil {
		return nil, fmt.Errorf("shadow: Diagnose needs a format")
	}
	tp := opt.TracePoints
	if tp <= 0 {
		tp = 32
	}
	cfg, err := core.ParseConfig(opt.Solver, opt.Format.Name(), opt.Rescale, opt.Higham, opt.Tol, opt.MaxIter)
	if err != nil {
		return nil, fmt.Errorf("shadow: %w", err)
	}
	// The Recorder measures the Nums of the registered format the run
	// uses. It exists before the reference run, so a report that ends
	// there still carries its (empty) telemetry and stride.
	f, err := arith.ByName(cfg.Format)
	if err != nil {
		return nil, err
	}
	rec := NewRecorder(f, opt.Sample)
	rep := &Report{Matrix: matrix, Solver: cfg.Method.String(), Format: f.Name(), N: a.N}
	p := core.Problem{A: a, B: b}
	_, maxIter := cfg.Caps(a.N)
	stride := traceStride(maxIter, tp)
	start := time.Now()
	finish := func() (*Report, error) {
		rep.Telemetry = rec.Snapshot()
		rep.SampleEvery = rep.Telemetry.SampleEvery
		rep.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		return rep, nil
	}

	// Shadow-precision reference: the same run in Float64; for ir a
	// Float64 Cholesky solve of the unscaled system, the target the
	// refinement converges toward. CG keeps its iterates at the trace
	// points for an iteration-for-iteration comparison.
	refCfg := cfg
	if cfg.Method == core.MethodMixedIR {
		refCfg = core.Config{Method: core.MethodCholesky}
	}
	refCfg.Format = "float64"
	refX := map[int][]float64{}
	var refHooks core.Hooks
	refHooks.CG.OnIteration = func(iter int, x, _ []arith.Num) {
		if shouldTrace(iter, tp, stride) {
			refX[iter] = linalg.VecToFloat64(arith.Float64, x)
		}
	}
	ref, err := core.SolveCtx(ctx, p, refCfg, refHooks)
	if err != nil {
		return nil, err
	}
	rep.ShadowFinalResidual = Float(ref.BackwardError)
	switch {
	case cfg.Method == core.MethodCG:
		rep.ShadowFinalResidual = Float(ref.RelResidual)
	case ref.Failed && cfg.Method == core.MethodCholesky:
		// Not positive definite even at shadow precision: the request
		// is unsolvable, which is a diagnosis, not a server error.
		rep.Failed = true
		return finish()
	}

	// The format run, under the Recorder, which SolveCtx tells of each
	// phase ("cg", "factor", "solve") as its label. Past the reference
	// run's convergence point CG's divergence is taken against its
	// final iterate (the trajectory the format run failed to follow).
	// Residuals are measured on the original system, where pow2
	// rescaling leaves them exact. Without a reference solution, ir's
	// divergence entries stay null.
	normB := linalg.Norm2F64(b)
	scratch := make([]float64, a.N)
	var trace []TracePoint
	h := core.Hooks{Observers: []arith.Observer{rec}, Phase: rec.SetLabel}
	h.CG.OnIteration = func(iter int, x, _ []arith.Num) {
		if !shouldTrace(iter, tp, stride) {
			return
		}
		xf := linalg.VecToFloat64(f, x)
		rx := refX[iter]
		if rx == nil {
			rx = ref.X
		}
		trace = append(trace, TracePoint{
			Iter:           iter,
			Divergence:     Float(relDist(xf, rx)),
			Residual:       Float(trueResidual(a, b, xf, scratch, normB)),
			ShadowResidual: Float(trueResidual(a, b, rx, scratch, normB)),
		})
	}
	h.IR.OnIteration = func(iter int, x []float64, eta float64) {
		if !shouldTrace(iter, tp, stride) {
			return
		}
		div := math.NaN()
		if ref.X != nil {
			div = relDist(x, ref.X)
		}
		trace = append(trace, TracePoint{
			Iter:           iter,
			Divergence:     Float(div),
			Residual:       Float(eta),
			ShadowResidual: rep.ShadowFinalResidual,
		})
	}
	sol, err := core.SolveCtx(ctx, p, cfg, h)
	if err != nil {
		return nil, err
	}
	rep.Iterations, rep.Converged, rep.Failed = sol.Iterations, sol.Converged, sol.Failed
	rep.FinalResidual = Float(sol.BackwardError)
	if cfg.Method == core.MethodCG {
		rep.FinalResidual = Float(sol.RelResidual)
	}
	rep.Trace = trace
	if sol.Factor != nil {
		rep.Columns = columnDiags(sol.Factor.ToFloat64(), ref.Factor.ToFloat64())
	}
	if ref.X != nil && sol.X != nil {
		rep.ForwardError = Float(relDist(sol.X, ref.X))
		fillEnvelope(rep, f, ref.X)
	}
	return finish()
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
