package experiments

import (
	"context"
	"fmt"
	"math"

	"positlab/internal/arith"
	"positlab/internal/fft"
	"positlab/internal/linalg"
	"positlab/internal/matgen"
	"positlab/internal/report"
	"positlab/internal/runner"
	"positlab/internal/scaling"
	"positlab/internal/shocktube"
	"positlab/internal/solvers"
)

func init() {
	runner.Register(runner.Spec{
		ID:    "ext-fft",
		Title: "future work: FFT accuracy per format (§VII)",
		Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
			rows, err := ExtFFT()
			if err != nil {
				return nil, err
			}
			return &runner.Result{Body: RenderExtFFT(rows)}, nil
		},
	})
	runner.Register(runner.Spec{
		ID:    "ext-shock",
		Title: "future work: Sod shock tube per format (§VII)",
		Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
			rows, err := ExtShock()
			if err != nil {
				return nil, err
			}
			return &runner.Result{Body: RenderExtShock(rows)}, nil
		},
	})
	runner.Register(runner.Spec{
		ID:    "ext-bicg",
		Title: "future work: BiCG iterate growth vs CG (§VI)",
		Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
			opt := optFrom(ctx, env)
			pec, err := ExtBiCGPeclet(opt, nil)
			if err != nil {
				return nil, err
			}
			s := RenderExtBiCG(ExtBiCG(opt))
			if err := ctx.Err(); err != nil {
				return nil, err // canceled: never cache partial rows
			}
			s += "\nconvection-diffusion Peclet sweep (n=400, nonsymmetric):\n"
			s += RenderExtBiCGPeclet(pec)
			return &runner.Result{Body: s}, nil
		},
	})
	runner.Register(runner.Spec{
		ID:    "ext-gmres",
		Title: "extension: GMRES-IR vs plain IR corrections (§V-D2)",
		// ext-gmres's plain-IR column is Table II; scheduling it after
		// table2 lets it read the memoized rows instead of repeating
		// every plain refinement solve.
		Deps: []string{"table2"},
		Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
			opt := optFrom(ctx, env)
			rows := ExtGMRES(opt)
			if err := ctx.Err(); err != nil {
				return nil, err // canceled: never cache partial rows
			}
			return &runner.Result{Body: RenderExtGMRES(rows, opt.fill().IRMaxIter)}, nil
		},
	})
}

// The paper's §VII names three future-work applications: FFT (expected
// to favor posits — narrow working range), Bi-CG (expected to resist
// rescaling — large iterates), and Sod's shock tube for CFD. These
// experiments implement all three.

// ExtFFTRow is the FFT accuracy comparison for one format.
type ExtFFTRow struct {
	Format string
	// ForwardErr is ‖F̂x − Fx‖₂/‖Fx‖₂ of the format transform against
	// the float64 reference.
	ForwardErr float64
	// RoundTripErr is the relative L2 error of inverse(forward(x)).
	RoundTripErr float64
}

// fftTestSignal synthesizes the three-tone unit-amplitude input in
// float64. A separate float64-only helper keeps the trig out of the
// format-generic ExtFFT (the signal is an exact input, rounded once
// into each format by the plan).
func fftTestSignal(n int) []float64 {
	sig := make([]float64, n)
	for i := range sig {
		x := float64(i) / float64(n)
		sig[i] = math.Sin(2*math.Pi*5*x) + float64(0.5*math.Cos(2*math.Pi*31*x)) + float64(0.25*math.Sin(2*math.Pi*101*x))
	}
	return sig
}

// roundTripErrL2 is the relative L2 error of a complex round-trip
// against the real input, evaluated in float64 (reporting metric).
func roundTripErrL2(back []complex128, sig []float64) float64 {
	var num, den float64
	for i := range sig {
		d := real(back[i]) - sig[i]
		num += float64(d*d) + float64(imag(back[i])*imag(back[i]))
		den += float64(sig[i] * sig[i])
	}
	return math.Sqrt(num / den)
}

// ExtFFT runs a 1024-point FFT of a three-tone unit-amplitude signal
// in each format.
func ExtFFT() ([]ExtFFTRow, error) {
	const n = 1024
	sig := fftTestSignal(n)
	ref := fft.ReferenceForward(sig)

	formats := []arith.Format{
		arith.Float64, arith.Float32, arith.Posit32e2, arith.Posit32e3,
		arith.Float16, arith.BFloat16, arith.Posit16e1, arith.Posit16e2,
		arith.FP8E5M2, arith.FP8E4M3,
		arith.MustByName("posit8es0"), arith.MustByName("posit8es1"),
	}
	var rows []ExtFFTRow
	for _, f := range formats {
		p, err := fft.NewPlan(f, n)
		if err != nil {
			return nil, fmt.Errorf("ext-fft: %s: %w", f.Name(), err)
		}
		x := fft.FromReal(f, sig)
		p.Forward(x)
		fwd := fft.RelErrorL2(fft.ToFloat64(f, x), ref)
		p.Inverse(x)
		rows = append(rows, ExtFFTRow{
			Format:       f.Name(),
			ForwardErr:   fwd,
			RoundTripErr: roundTripErrL2(fft.ToFloat64(f, x), sig),
		})
	}
	return rows, nil
}

// RenderExtFFT prints the FFT accuracy table.
func RenderExtFFT(rows []ExtFFTRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Format, report.Sci(r.ForwardErr), report.Sci(r.RoundTripErr)})
	}
	return report.Table([]string{"Format", "forward err", "round-trip err"}, out)
}

// ExtShockRow is the shock-tube accuracy comparison for one format.
type ExtShockRow struct {
	Format string
	// DensityErr is the relative L2 error of the final density profile
	// against the float64 reference.
	DensityErr float64
	Steps      int
	Failed     bool
}

// ExtShock runs Sod's problem at 200 cells to t=0.2 in each format.
func ExtShock() ([]ExtShockRow, error) {
	cfg := shocktube.Config{Cells: 200}
	ref, _, failed := shocktube.Run(arith.Float64, cfg)
	if failed {
		return nil, fmt.Errorf("ext-shock: float64 shock tube reference failed")
	}
	refRho := ref.Density()
	formats := []arith.Format{
		arith.Float64, arith.Float32, arith.Posit32e2,
		arith.Float16, arith.BFloat16, arith.Posit16e1, arith.Posit16e2,
		arith.FP8E5M2, arith.FP8E4M3,
		arith.MustByName("posit8es0"), arith.MustByName("posit8es1"),
	}
	var rows []ExtShockRow
	for _, f := range formats {
		s, steps, failed := shocktube.Run(f, cfg)
		row := ExtShockRow{Format: f.Name(), Steps: steps, Failed: failed}
		if !failed {
			row.DensityErr = shocktube.RelErrorL2(s.Density(), refRho)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderExtShock prints the shock-tube table.
func RenderExtShock(rows []ExtShockRow) string {
	var out [][]string
	for _, r := range rows {
		errCell := report.Sci(r.DensityErr)
		if r.Failed {
			errCell = "-"
		}
		out = append(out, []string{r.Format, errCell, fmt.Sprintf("%d", r.Steps)})
	}
	return report.Table([]string{"Format", "density L2 err", "steps"}, out)
}

// ExtGMRESRow compares plain IR against GMRES-IR corrections for one
// matrix and format — §V-D2's remark that the Table II failure cases
// "would be less likely to occur" with GMRES solving the correction
// equation.
type ExtGMRESRow struct {
	Matrix string
	// Plain and GMRES results per format, parallel to IRFormats.
	Plain, GMRES []solvers.IRResult
}

// ExtGMRES runs the naive (Table II) configuration with GMRES
// corrections and takes the plain-IR cells from Table2's rows, which
// are in suite order. A canceled run, or a Table II cut short,
// returns the rows finished so far.
func ExtGMRES(opt Options) []ExtGMRESRow {
	opt = opt.fill()
	plain := Table2(opt)
	iopt := solvers.IROptions{Tol: opt.IRTol, MaxIter: opt.IRMaxIter}
	var rows []ExtGMRESRow
	for i, m := range suite(opt.Matrices) {
		if i == len(plain) || opt.canceled() {
			return rows
		}
		row := ExtGMRESRow{Matrix: m.Target.Name, Plain: plain[i].Res, GMRES: make([]solvers.IRResult, len(IRFormats))}
		for j, f := range IRFormats {
			res, err := solvers.MixedIRGMRES(opt.ctx(), m.A, m.B, opt.format(f), solvers.IRScaling{}, iopt, solvers.GMRESOptions{})
			if err != nil {
				return rows // canceled mid-refinement; caller reports ctx.Err()
			}
			row.GMRES[j] = res
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderExtGMRES prints plain-vs-GMRES cells side by side.
func RenderExtGMRES(rows []ExtGMRESRow, cap int) string {
	hdr := []string{"Matrix"}
	for _, f := range IRFormats {
		hdr = append(hdr, f.Name()+" IR", f.Name()+" GMRES-IR")
	}
	var out [][]string
	for _, r := range rows {
		row := []string{r.Matrix}
		for i := range IRFormats {
			row = append(row, irCell(r.Plain[i], cap), irCell(r.GMRES[i], cap))
		}
		out = append(out, row)
	}
	return report.Table(hdr, out)
}

// ExtBiCGRow compares CG and BiCG iterate growth on one matrix — the
// §VI hypothesis that Bi-CG's larger iterates limit rescaling.
type ExtBiCGRow struct {
	Matrix string
	// MaxIterate per solver in posit(32,2) on the rescaled system, and
	// iteration counts.
	CGIters, BiCGIters         int
	CGConverged, BiCGConverged bool
	BiCGMaxIterate             float64
}

// ExtBiCG runs both solvers in posit(32,2) on rescaled suite systems.
func ExtBiCG(opt Options) []ExtBiCGRow {
	opt = opt.fill()
	f := opt.format(arith.Posit32e2)
	var rows []ExtBiCGRow
	for _, m := range suite(opt.Matrices) {
		if opt.canceled() {
			return rows
		}
		a := m.A.Clone()
		b := append([]float64(nil), m.B...)
		// Same rescaling as Fig. 7.
		scaling.RescaleSystemCG(a, b)
		an := a.ToFormat(f, false)
		bn := linalg.VecFromFloat64(f, b)
		cap := opt.CGCapFactor * a.N
		cg, err := solvers.CGCtx(opt.ctx(), an, bn, opt.CGTol, cap)
		if err != nil {
			return rows // canceled mid-solve; caller reports ctx.Err()
		}
		bicg, err := solvers.BiCG(opt.ctx(), an, bn, opt.CGTol, cap)
		if err != nil {
			return rows
		}
		rows = append(rows, ExtBiCGRow{
			Matrix:         m.Target.Name,
			CGIters:        cg.Iterations,
			BiCGIters:      bicg.Iterations,
			CGConverged:    cg.Converged,
			BiCGConverged:  bicg.Converged,
			BiCGMaxIterate: bicg.MaxIterate,
		})
	}
	return rows
}

// RenderExtBiCG prints the CG/BiCG comparison.
func RenderExtBiCG(rows []ExtBiCGRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Matrix,
			report.FormatCount(r.CGIters, r.CGConverged, false, r.CGIters),
			report.FormatCount(r.BiCGIters, r.BiCGConverged, false, r.BiCGIters),
			report.Sci(r.BiCGMaxIterate),
		})
	}
	return report.Table([]string{"Matrix", "CG iters", "BiCG iters", "BiCG max |iterate|"}, out)
}

// ExtBiCGPecletRow is the nonsymmetric iterate-growth experiment: BiCG
// on the convection-diffusion operator at increasing Peclet number in
// posit(32,2) and Float32, unscaled and pow2-rescaled. It probes §VI's
// hypothesis that Bi-CG's "even larger iterates than traditional CG
// may limit the potential for re-scaling as a means to stabilize
// Posit".
type ExtBiCGPecletRow struct {
	Peclet float64
	// Per format: iterations and peak |iterate| magnitude, unscaled;
	// the posit run is repeated after the Fig. 7 rescaling. Float64
	// is the reference showing the iteration count the method needs
	// when precision is not the limit.
	Float64Iters, Float32Iters, PositIters                                     int
	Float64MaxIterate, Float32MaxIterate, PositMaxIterate                      float64
	PositRescaledIters                                                         int
	PositRescaledMaxIterate                                                    float64
	Float64Converged, Float32Converged, PositConverged, PositRescaledConverged bool
}

// uniformUnitVec is the unit-norm constant vector x̂ used as the known
// solution, built in float64 (exact input construction, kept out of
// the format-generic sweep).
func uniformUnitVec(n int) []float64 {
	xhat := make([]float64, n)
	for i := range xhat {
		xhat[i] = 1 / math.Sqrt(float64(n))
	}
	return xhat
}

// ExtBiCGPeclet runs the convection-diffusion sweep (n = 400) on
// opt's observed formats (see Options.Ops). A canceled run returns the
// context's error and solves nothing more.
func ExtBiCGPeclet(opt Options, peclets []float64) ([]ExtBiCGPecletRow, error) {
	if peclets == nil {
		peclets = []float64{0, 1, 10, 100, 1000}
	}
	const n = 400
	var rows []ExtBiCGPecletRow
	for _, p := range peclets {
		a, err := matgen.ConvectionDiffusion1D(n, p)
		if err != nil {
			return nil, fmt.Errorf("ext-bicg: %w", err)
		}
		xhat := uniformUnitVec(n)
		b := make([]float64, n)
		a.MatVecF64(xhat, b)

		// A canceled run skips its remaining solves, stops the one in
		// flight at its next iteration, and returns the context's error
		// after the row.
		run := func(f arith.Format, mat *linalg.Sparse, rhs []float64) solvers.BiCGResult {
			if opt.canceled() {
				return solvers.BiCGResult{}
			}
			fi := opt.format(f)
			res, _ := solvers.BiCG(opt.ctx(), mat.ToFormat(fi, false), linalg.VecFromFloat64(fi, rhs), 1e-5, 10*n)
			return res
		}
		row := ExtBiCGPecletRow{Peclet: p}
		r64 := run(arith.Float64, a, b)
		row.Float64Iters, row.Float64MaxIterate, row.Float64Converged = r64.Iterations, r64.MaxIterate, r64.Converged
		r32 := run(arith.Float32, a, b)
		row.Float32Iters, row.Float32MaxIterate, row.Float32Converged = r32.Iterations, r32.MaxIterate, r32.Converged
		rp := run(arith.Posit32e2, a, b)
		row.PositIters, row.PositMaxIterate, row.PositConverged = rp.Iterations, rp.MaxIterate, rp.Converged

		a2 := a.Clone()
		b2 := append([]float64(nil), b...)
		scaling.RescaleSystemCG(a2, b2)
		rs := run(arith.Posit32e2, a2, b2)
		row.PositRescaledIters, row.PositRescaledMaxIterate, row.PositRescaledConverged = rs.Iterations, rs.MaxIterate, rs.Converged
		if err := opt.ctx().Err(); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderExtBiCGPeclet prints the Peclet sweep.
func RenderExtBiCGPeclet(rows []ExtBiCGPecletRow) string {
	hdr := []string{"Peclet", "Float64", "max|it|", "Float32", "max|it|", "Posit(32,2)", "max|it|", "Posit rescaled", "max|it|"}
	var out [][]string
	cell := func(it int, conv bool) string {
		return report.FormatCount(it, conv, false, it)
	}
	for _, r := range rows {
		out = append(out, []string{
			report.Sci(r.Peclet),
			cell(r.Float64Iters, r.Float64Converged),
			report.Sci(r.Float64MaxIterate),
			cell(r.Float32Iters, r.Float32Converged),
			report.Sci(r.Float32MaxIterate),
			cell(r.PositIters, r.PositConverged),
			report.Sci(r.PositMaxIterate),
			cell(r.PositRescaledIters, r.PositRescaledConverged),
			report.Sci(r.PositRescaledMaxIterate),
		})
	}
	return report.Table(hdr, out)
}
