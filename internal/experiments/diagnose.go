package experiments

// The shadow-diagnosis experiment: Table III's mixed-precision
// iterative refinement re-run under the shadow wrapper, one diagnosis
// per matrix × 16-bit factorization format. Iteration counts are
// bit-identical to Table III's (the wrapper never perturbs results);
// what this adds is the per-op error telemetry, the forward-error
// decay against the Float64 solution, and the decimal-digits envelope
// comparison. Not part of "all" — it roughly doubles the IR work — so
// the CLI exposes it behind -shadow.

import (
	"context"
	"fmt"

	"positlab/internal/report"
	"positlab/internal/runner"
	"positlab/internal/shadow"
)

func init() {
	runner.Register(runner.Spec{
		ID:    "diagnose",
		Title: "shadow-precision diagnosis of Higham-scaled IR",
		Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
			opt := optFrom(ctx, env)
			rows, err := DiagnoseIR(opt)
			if err != nil {
				return nil, err // canceled or failed: never cache partial rows
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			arts := []runner.Artifact{csvArt("diagnose.csv", DiagnoseCSV(rows))}
			var measured float64
			for _, r := range rows {
				measured += float64(r.Rep.Telemetry.MeasuredOps)
				// One decay figure per format, from the first matrix of
				// the selection (bounded: the full suite would emit 57).
				if r.Matrix == rows[0].Matrix {
					if svg := r.Rep.DecaySVG(); svg != "" {
						arts = append(arts, svgArt(fmt.Sprintf("diagnose_%s.svg", r.Format), svg))
					}
				}
			}
			return &runner.Result{
				Body:      RenderDiagnose(rows),
				Artifacts: arts,
				Metrics:   map[string]float64{"shadow_measured_ops": measured},
			}, nil
		},
	})
}

// DiagRow is one matrix × format shadow diagnosis.
type DiagRow struct {
	Matrix string
	Format string
	Rep    *shadow.Report
}

// DiagnoseIR runs the shadow-diagnosed Higham-scaled IR experiment
// over the suite × IRFormats grid.
func DiagnoseIR(opt Options) ([]DiagRow, error) {
	opt = opt.fill()
	var rows []DiagRow
	for _, m := range suite(opt.Matrices) {
		for _, f := range IRFormats {
			if opt.canceled() {
				return nil, opt.ctx().Err()
			}
			// The diagnosis report carries its own op totals.
			rep, err := shadow.Diagnose(opt.ctx(), m.A, m.B, m.Target.Name, shadow.Options{
				Solver:  "ir",
				Format:  f,
				Sample:  shadow.Config{SampleEvery: opt.ShadowSample},
				Tol:     opt.IRTol,
				MaxIter: opt.IRMaxIter,
				Higham:  true,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, DiagRow{Matrix: m.Target.Name, Format: f.Name(), Rep: rep})
		}
	}
	return rows, nil
}

// RenderDiagnose prints the diagnosis grid: Table III's iteration
// counts with the shadow columns alongside.
func RenderDiagnose(rows []DiagRow) string {
	hdr := []string{"Matrix", "Format", "Iters", "FwdErr", "Digits", "Envelope", "Measured", "MaxRel"}
	var out [][]string
	for _, r := range rows {
		rep := r.Rep
		cell := "-"
		if !rep.Failed {
			cell = fmt.Sprintf("%d", rep.Iterations)
			if !rep.Converged {
				cell += "+"
			}
		}
		digits, env := "-", "-"
		if rep.Envelope != nil {
			digits = fmt.Sprintf("%.1f", float64(rep.Envelope.AchievedDigits))
			env = fmt.Sprintf("%.1f", float64(rep.Envelope.EnvelopeDigits))
		}
		out = append(out, []string{
			r.Matrix, r.Format, cell,
			report.Sci(float64(rep.ForwardError)),
			digits, env,
			fmt.Sprintf("%d", rep.Telemetry.MeasuredOps),
			report.Sci(maxRelOf(rep)),
		})
	}
	return report.Table(hdr, out)
}

// DiagnoseCSV renders the full numeric grid as CSV.
func DiagnoseCSV(rows []DiagRow) string {
	var out [][]string
	for _, r := range rows {
		rep := r.Rep
		digits, env, ratio := "", "", ""
		if rep.Envelope != nil {
			digits = fmt.Sprintf("%.3f", float64(rep.Envelope.AchievedDigits))
			env = fmt.Sprintf("%.3f", float64(rep.Envelope.EnvelopeDigits))
			ratio = fmt.Sprintf("%.3f", float64(rep.Envelope.Ratio))
		}
		out = append(out, []string{
			r.Matrix, r.Format,
			fmt.Sprintf("%d", rep.Iterations),
			fmt.Sprintf("%t", rep.Converged),
			fmt.Sprintf("%t", rep.Failed),
			report.Sci(float64(rep.FinalResidual)),
			report.Sci(float64(rep.ForwardError)),
			digits, env, ratio,
			fmt.Sprintf("%d", rep.Telemetry.TotalOps),
			fmt.Sprintf("%d", rep.Telemetry.MeasuredOps),
			report.Sci(maxRelOf(rep)),
		})
	}
	return report.CSV([]string{
		"matrix", "format", "iterations", "converged", "failed",
		"backward_error", "forward_error", "achieved_digits",
		"envelope_digits", "ratio", "total_ops", "measured_ops", "max_rel",
	}, out)
}

// maxRelOf is the largest relative error any telemetry cell recorded.
func maxRelOf(rep *shadow.Report) float64 {
	var v float64
	for _, s := range rep.Telemetry.Stats {
		if float64(s.MaxRel) > v {
			v = float64(s.MaxRel)
		}
	}
	return v
}
