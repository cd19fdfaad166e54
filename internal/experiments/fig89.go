package experiments

import (
	"context"
	"fmt"
	"math"

	"positlab/internal/arith"
	"positlab/internal/core"
	"positlab/internal/report"
	"positlab/internal/runner"
)

func init() {
	runner.Register(runner.Spec{
		ID:    "fig8",
		Title: "Cholesky relative backward error, unscaled",
		Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
			rows := Fig8(optFrom(ctx, env))
			if err := ctx.Err(); err != nil {
				return nil, err // canceled: never cache partial rows
			}
			return &runner.Result{
				Body: RenderChol(rows),
				Artifacts: []runner.Artifact{
					csvArt("fig8.csv", CholCSV(rows)),
					svgArt("fig8a.svg", CholSVG(rows, "Fig. 8(a): digits advantage over Float32, unscaled")),
					svgArt("fig8b.svg", CholNormScatterSVG(rows)),
				},
			}, nil
		},
	})
	runner.Register(runner.Spec{
		ID:    "fig9",
		Title: "Cholesky backward error, Algorithm 3 rescaling",
		Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
			rows := Fig9(optFrom(ctx, env))
			if err := ctx.Err(); err != nil {
				return nil, err // canceled: never cache partial rows
			}
			return &runner.Result{
				Body: RenderChol(rows),
				Artifacts: []runner.Artifact{
					csvArt("fig9.csv", CholCSV(rows)),
					svgArt("fig9.svg", CholSVG(rows, "Fig. 9: digits advantage over Float32, Algorithm 3 rescaling")),
				},
			}, nil
		},
	})
}

// CholFormats are the formats compared in Figs. 8 and 9.
var CholFormats = []arith.Format{
	arith.Float32, arith.Posit32e2, arith.Posit32e3,
}

// CholRow is one matrix of the Fig. 8/9 data: relative backward error
// per format and the digits-of-precision advantage panels,
// log10(float32 error / posit error).
type CholRow struct {
	Matrix string
	Norm2  float64
	// BackErr per format (parallel to CholFormats); NaN = factorization
	// failed in that format.
	BackErr []float64
	// DigitsAdvantage of each posit format over Float32.
	DigitsAdvantage map[string]float64
}

// Fig8 runs the unscaled single-precision Cholesky direct solve
// (paper §V-C1).
func Fig8(opt Options) []CholRow { return cholExperiment(opt, core.RescaleNone) }

// Fig9 runs Cholesky after Algorithm 3's diagonal-average rescaling
// (paper §V-C2).
func Fig9(opt Options) []CholRow { return cholExperiment(opt, core.RescaleDiagAvg) }

func cholExperiment(opt Options, rescale core.Rescale) []CholRow {
	opt = opt.fill()
	var rows []CholRow
	for _, m := range suite(opt.Matrices) {
		if opt.canceled() {
			return rows
		}
		cfg := core.Config{Method: core.MethodCholesky, Rescale: rescale}
		row := CholRow{
			Matrix:          m.Target.Name,
			Norm2:           m.Target.Norm2,
			BackErr:         make([]float64, len(CholFormats)),
			DigitsAdvantage: map[string]float64{},
		}
		for i, f := range CholFormats {
			sol, err := opt.solve(m, cfg, f)
			if err != nil {
				return rows // canceled mid-factorization; caller reports ctx.Err()
			}
			row.BackErr[i] = sol.BackwardError
			if sol.Failed {
				row.BackErr[i] = math.NaN() // breakdown, or a solution the format overflowed
			}
		}
		f32 := 0 // CholFormats[0] is Float32
		for i, f := range CholFormats {
			if i == f32 {
				continue
			}
			row.DigitsAdvantage[f.Name()] = log10Ratio(row.BackErr[f32], row.BackErr[i])
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderChol prints backward errors and the digits-advantage panels.
func RenderChol(rows []CholRow) string {
	hdr := []string{"Matrix", "||A||2"}
	for _, f := range CholFormats {
		hdr = append(hdr, f.Name())
	}
	hdr = append(hdr, "digits adv (32,2)", "digits adv (32,3)")
	var out [][]string
	for _, r := range rows {
		row := []string{r.Matrix, report.Sci(r.Norm2)}
		for i := range CholFormats {
			row = append(row, report.Sci(r.BackErr[i]))
		}
		row = append(row,
			digits(r.DigitsAdvantage["Posit(32,2)"]),
			digits(r.DigitsAdvantage["Posit(32,3)"]))
		out = append(out, row)
	}
	return report.Table(hdr, out)
}

func digits(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%+.2f", v)
}
