package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"positlab/internal/arith"
	"positlab/internal/core"
	"positlab/internal/report"
	"positlab/internal/runner"
	"positlab/internal/solvers"
)

func init() {
	irSpec := func(id, title string, fn func(Options) []IRRow, higham bool) runner.Spec {
		return runner.Spec{
			ID:    id,
			Title: title,
			Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
				opt := optFrom(ctx, env)
				rows := fn(opt)
				if err := ctx.Err(); err != nil {
					return nil, err // canceled: never cache partial rows
				}
				cap := opt.fill().IRMaxIter
				iters := 0.0
				for _, r := range rows {
					for _, res := range r.Res {
						iters += float64(res.Iterations)
					}
				}
				return &runner.Result{
					Body:      RenderIR(rows, cap, higham),
					Artifacts: []runner.Artifact{csvArt(id+".csv", IRCSV(rows, cap))},
					Metrics:   map[string]float64{"ir_iterations": iters},
				}, nil
			},
		}
	}
	runner.Register(irSpec("table2", "naive mixed-precision iterative refinement", Table2, false))
	runner.Register(irSpec("table3", "iterative refinement with Higham scaling", Table3, true))
}

// IRFormats are the 16-bit factorization formats of Tables II and III.
var IRFormats = []arith.Format{
	arith.Float16, arith.Posit16e1, arith.Posit16e2,
}

// IRRow is one matrix of the Table II/III data.
type IRRow struct {
	Matrix string
	// Res per format, parallel to IRFormats.
	Res []solvers.IRResult
	// PctDiff is Table III's "% diff" column: the percent reduction in
	// refinement steps from Float16 to the better posit16 format, with
	// capped runs counted at the cap.
	PctDiff float64
}

// Table2 runs naive mixed-precision IR: the matrix is cast directly
// into each 16-bit format (overflow clamped to the largest finite
// value) and factored there; refinement runs in Float64 (paper §V-D2,
// first experiment).
func Table2(opt Options) []IRRow { return irExperiment(opt, core.RescaleNone) }

// Table3 runs IR after Higham's Algorithm 5 equilibration with the
// paper's format-aware μ: a power of four near 0.1·max for Float16,
// USEED for the posit formats (paper §V-D2, second experiment).
func Table3(opt Options) []IRRow { return irExperiment(opt, core.RescaleHigham) }

// irEntry is one slot of the refinement-rows memo.
type irEntry struct {
	mu   sync.Mutex
	done bool
	rows []IRRow
}

var (
	irMu   sync.Mutex
	irMemo = map[string]*irEntry{}
)

// memoKey identifies a preparation and filled options for in-process
// memoization. Ops is deliberately excluded: instrumentation does not
// change rows.
func (o Options) memoKey(rescale core.Rescale) string {
	return fmt.Sprintf("%v|%s|%g|%d|%g|%d", rescale,
		strings.Join(o.Matrices, ","), o.CGTol, o.CGCapFactor, o.IRTol, o.IRMaxIter)
}

// irExperiment returns the Table II or III rows of one preparation,
// memoized per preparation and option set: fig10 derives both of its
// panels from table3's runs and ext-gmres takes its plain-IR column
// from table2's, so when the runner schedules each after its declared
// dep, every refinement solve happens once.
func irExperiment(opt Options, rescale core.Rescale) []IRRow {
	opt = opt.fill()
	key := opt.memoKey(rescale)
	irMu.Lock()
	e, ok := irMemo[key]
	if !ok {
		e = &irEntry{}
		irMemo[key] = e
	}
	irMu.Unlock()
	// Per-entry singleflight with cancellation awareness: a run cut
	// short by its context must not poison the memo for later callers
	// (sync.Once would latch the partial rows forever), so only a run
	// that solved every cell is recorded.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return e.rows
	}
	var rows []IRRow
	for _, m := range suite(opt.Matrices) {
		if opt.canceled() {
			return rows // partial; the next caller recomputes
		}
		cfg := core.Config{Method: core.MethodMixedIR, Rescale: rescale, Tol: opt.IRTol, MaxIter: opt.IRMaxIter}
		row := IRRow{Matrix: m.Target.Name, Res: make([]solvers.IRResult, len(IRFormats))}
		for i, f := range IRFormats {
			sol, err := opt.solve(m, cfg, f)
			if err != nil {
				return rows // canceled mid-refinement; caller reports ctx.Err()
			}
			row.Res[i] = solvers.IRResult{
				Iterations: sol.Iterations, Converged: sol.Converged, FactorFailed: sol.Failed,
				FactorError: sol.FactorError, BackwardError: sol.BackwardError, History: sol.History, X: sol.X,
			}
		}
		row.PctDiff = pctDiff(row.Res, opt.IRMaxIter)
		rows = append(rows, row)
	}
	e.rows, e.done = rows, true
	return rows
}

// pctDiff computes Table III's "% diff": improvement of the better
// posit16 over Float16, counting failures and caps at the cap value.
func pctDiff(res []solvers.IRResult, cap int) float64 {
	count := func(r solvers.IRResult) float64 {
		if r.FactorFailed || !r.Converged {
			return float64(cap)
		}
		return float64(r.Iterations)
	}
	f16 := count(res[0])
	best := math.Min(count(res[1]), count(res[2]))
	if f16 == 0 {
		return 0
	}
	return (f16 - best) / f16 * 100
}

// RenderIR prints the Table II/III layout.
func RenderIR(rows []IRRow, cap int, withPct bool) string {
	hdr := []string{"Matrix"}
	for _, f := range IRFormats {
		hdr = append(hdr, f.Name())
	}
	if withPct {
		hdr = append(hdr, "% diff")
	}
	var out [][]string
	for _, r := range rows {
		row := []string{r.Matrix}
		for _, res := range r.Res {
			row = append(row, irCell(res, cap))
		}
		if withPct {
			row = append(row, fmt.Sprintf("%.1f", r.PctDiff))
		}
		out = append(out, row)
	}
	return report.Table(hdr, out)
}

// irCell renders one table cell with the paper's conventions: '-' for
// factorization failure or arithmetic error, '<cap>+' for refinement
// that did not converge, the count otherwise.
func irCell(r solvers.IRResult, cap int) string {
	if r.FactorFailed || math.IsNaN(r.BackwardError) {
		return "-"
	}
	if !r.Converged {
		return fmt.Sprintf("%d+", cap)
	}
	return fmt.Sprintf("%d", r.Iterations)
}
