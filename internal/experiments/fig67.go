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
	cgSpec := func(id, title string, fn func(Options) []CGRow, svgA, svgB, titleA, titleB string) runner.Spec {
		return runner.Spec{
			ID:    id,
			Title: title,
			Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
				rows := fn(optFrom(ctx, env))
				if err := ctx.Err(); err != nil {
					return nil, err // canceled: never cache partial rows
				}
				iters := 0.0
				for _, r := range rows {
					for _, it := range r.Iters {
						iters += float64(it)
					}
				}
				return &runner.Result{
					Body: RenderCG(rows),
					Artifacts: []runner.Artifact{
						csvArt(id+".csv", CGCSV(rows)),
						svgArt(svgA, CGSVG(rows, titleA)),
						svgArt(svgB, CGImprovementSVG(rows, titleB)),
					},
					Metrics: map[string]float64{"cg_iterations": iters},
				}, nil
			},
		}
	}
	runner.Register(cgSpec("fig6", "CG iterations, unscaled", Fig6,
		"fig6a.svg", "fig6b.svg",
		"Fig. 6(a): CG iterations, unscaled",
		"Fig. 6(b): % improvement over Float32, unscaled"))
	runner.Register(cgSpec("fig7", "CG iterations, rescaled to ||A||inf ~ 2^10", Fig7,
		"fig7a.svg", "fig7b.svg",
		"Fig. 7(a): CG iterations, rescaled",
		"Fig. 7(b): % improvement over Float32, rescaled"))
}

// CGFormats are the formats compared in Figs. 6 and 7, with Float64 as
// the reference the paper plots alongside.
var CGFormats = []arith.Format{
	arith.Float64, arith.Float32, arith.Posit32e2, arith.Posit32e3,
}

// CGRow is one matrix of the Fig. 6/7 data: iterations per format plus
// the percent-improvement series of the (b) panels.
type CGRow struct {
	Matrix string
	Norm2  float64
	// Per format (parallel to CGFormats): iterations, convergence flag,
	// and arithmetic failure (NaR/NaN/Inf mid-run — rendered '-' like
	// the paper's divergent runs; hitting the cap renders 'N+').
	Iters     []int
	Converged []bool
	Failed    []bool
	// PctImprovement of each posit32 format over Float32:
	// (itFloat32 - itPosit)/itFloat32 * 100; NaN when either failed.
	PctImprovement map[string]float64
}

// Fig6 runs unscaled CG on the suite (paper §V-A).
func Fig6(opt Options) []CGRow { return cgExperiment(opt, core.RescaleNone) }

// Fig7 runs CG after the power-of-two rescaling to ‖A‖∞ ≈ 2^10
// (paper §V-B).
func Fig7(opt Options) []CGRow { return cgExperiment(opt, core.RescaleInfNormPow2) }

func cgExperiment(opt Options, rescale core.Rescale) []CGRow {
	opt = opt.fill()
	var rows []CGRow
	for _, m := range suite(opt.Matrices) {
		if opt.canceled() {
			return rows
		}
		cfg := core.Config{Method: core.MethodCG, Rescale: rescale, Tol: opt.CGTol, MaxIter: opt.CGCapFactor * m.A.N}
		row := CGRow{
			Matrix:         m.Target.Name,
			Norm2:          m.Target.Norm2,
			Iters:          make([]int, len(CGFormats)),
			Converged:      make([]bool, len(CGFormats)),
			Failed:         make([]bool, len(CGFormats)),
			PctImprovement: map[string]float64{},
		}
		for i, f := range CGFormats {
			sol, err := opt.solve(m, cfg, f)
			if err != nil {
				return rows // canceled mid-solve; caller reports ctx.Err()
			}
			row.Iters[i], row.Converged[i], row.Failed[i] = sol.Iterations, sol.Converged, sol.Failed
		}
		// Percent improvement panels compare posit32 against Float32.
		f32 := indexOfFormat(CGFormats, "Float32")
		for i, f := range CGFormats {
			if f.Name() == "Posit(32,2)" || f.Name() == "Posit(32,3)" {
				if row.Failed[i] || row.Failed[f32] || !row.Converged[i] || !row.Converged[f32] {
					row.PctImprovement[f.Name()] = math.NaN()
				} else {
					it32 := float64(row.Iters[f32])
					row.PctImprovement[f.Name()] = (it32 - float64(row.Iters[i])) / it32 * 100
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func indexOfFormat(fs []arith.Format, name string) int {
	for i, f := range fs {
		if f.Name() == name {
			return i
		}
	}
	return -1
}

// RenderCG prints the Fig. 6/7 (a) panel as a table and the (b) panel
// as percent-improvement columns.
func RenderCG(rows []CGRow) string {
	hdr := []string{"Matrix", "||A||2"}
	for _, f := range CGFormats {
		hdr = append(hdr, f.Name())
	}
	hdr = append(hdr, "%impr (32,2)", "%impr (32,3)")
	var out [][]string
	for _, r := range rows {
		row := []string{r.Matrix, report.Sci(r.Norm2)}
		for i := range CGFormats {
			switch {
			case r.Failed[i]:
				row = append(row, "-") // arithmetic exception: diverged
			case !r.Converged[i]:
				row = append(row, fmt.Sprintf("%d+", r.Iters[i]))
			default:
				row = append(row, fmt.Sprintf("%d", r.Iters[i]))
			}
		}
		row = append(row,
			pct(r.PctImprovement["Posit(32,2)"]),
			pct(r.PctImprovement["Posit(32,3)"]))
		out = append(out, row)
	}
	return report.Table(hdr, out)
}

func pct(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", v)
}
