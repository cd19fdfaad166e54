package experiments

import (
	"context"
	"fmt"

	"positlab/internal/linalg"
	"positlab/internal/report"
	"positlab/internal/runner"
	"positlab/internal/solvers"
)

func init() {
	runner.Register(runner.Spec{
		ID:    "table1",
		Title: "matrix suite inventory",
		Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
			rows := Table1(optFrom(ctx, env))
			return &runner.Result{
				Body:      RenderTable1(rows),
				Artifacts: []runner.Artifact{csvArt("table1.csv", Table1CSV(rows))},
				Metrics:   map[string]float64{"matrices": float64(len(rows))},
			}, nil
		},
	})
}

// Table1Row is one matrix of the paper's Table I, with both the paper's
// reported values (targets) and the measured values of the synthetic
// replica.
type Table1Row struct {
	Name         string
	CondTarget   float64
	CondMeasured float64
	N            int
	Norm2Target  float64
	Norm2        float64
	NNZTarget    int
	NNZ          int
}

// Table1 regenerates the matrix inventory. Measured values come from
// Lanczos (‖A‖₂) and inverse iteration through a float64 Cholesky
// factorization (λmin).
func Table1(opt Options) []Table1Row {
	opt = opt.fill()
	var rows []Table1Row
	for _, m := range suite(opt.Matrices) {
		rows = append(rows, Table1Row{
			Name:         m.Target.Name,
			CondTarget:   m.Target.Cond,
			CondMeasured: solvers.CondViaCholesky(m.A),
			N:            m.A.N,
			Norm2Target:  m.Target.Norm2,
			Norm2:        linalg.Norm2Est(m.A),
			NNZTarget:    m.Target.NNZ,
			NNZ:          m.A.NNZ(),
		})
	}
	return rows
}

// RenderTable1 prints the Table I layout plus replica-fidelity columns.
func RenderTable1(rows []Table1Row) string {
	hdr := []string{"Matrix", "k(A)", "k(A) meas", "N", "||A||2", "||A||2 meas", "NNZ", "NNZ meas"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Name,
			report.Sci(r.CondTarget),
			report.Sci(r.CondMeasured),
			fmt.Sprintf("%d", r.N),
			report.Sci(r.Norm2Target),
			report.Sci(r.Norm2),
			fmt.Sprintf("%d", r.NNZTarget),
			fmt.Sprintf("%d", r.NNZ),
		})
	}
	return report.Table(hdr, out)
}
