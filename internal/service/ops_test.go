package service

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/experiments"
	"positlab/internal/linalg"
	"positlab/internal/solvers"
)

// TestSolveOpCounts pins what /v1/solve counts. For cg, cholesky and
// ir, the response's ops must equal the /debug/metrics ops delta
// around the request, and both must equal the counts of the same solve
// run in-process under a single counting observer.
func TestSolveOpCounts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	metricsOps := func() arith.OpCounts {
		var snap MetricsSnapshot
		if err := json.Unmarshal([]byte(readBody(t, get(t, ts.URL+"/debug/metrics"))), &snap); err != nil {
			t.Fatalf("decode metrics: %v", err)
		}
		return snap.Ops
	}
	sys := experiments.Suite([]string{"bcsstk01"})[0]
	a, b := sys.A, sys.B
	ctx := context.Background()
	for _, format := range []string{"posit16es2", "posit32es2"} {
		f := arith.MustByName(format)
		for _, solver := range []string{"cg", "cholesky", "ir"} {
			before := metricsOps()
			resp := post(t, ts.URL+"/v1/solve",
				fmt.Sprintf(`{"matrix":"bcsstk01","solver":%q,"format":%q}`, solver, format))
			body := readBody(t, resp)
			if resp.StatusCode != 200 {
				t.Fatalf("%s %s: status %d: %s", format, solver, resp.StatusCode, body)
			}
			var out solveResponse
			if err := json.Unmarshal([]byte(body), &out); err != nil {
				t.Fatalf("decode: %v", err)
			}
			after := metricsOps()
			delta := arith.OpCounts{
				Add: after.Add - before.Add, Sub: after.Sub - before.Sub,
				Mul: after.Mul - before.Mul, Div: after.Div - before.Div,
				Sqrt: after.Sqrt - before.Sqrt, Conv: after.Conv - before.Conv,
			}

			var c arith.AtomicOpCounts
			fi := arith.Observe(f, &c)
			var err error
			switch solver {
			case "cg":
				_, err = solvers.CGCheckpointed(ctx, a.ToFormat(fi, false), linalg.VecFromFloat64(fi, b),
					1e-5, 10*a.N, solvers.CGCheckpointOptions{})
			case "cholesky":
				_, err = solvers.CholeskySolve(a.ToDense().ToFormat(fi, false), linalg.VecFromFloat64(fi, b))
			case "ir":
				_, err = solvers.MixedIRCheckpointed(ctx, a, b, fi, solvers.IRScaling{},
					solvers.IROptions{}, solvers.IRCheckpointOptions{})
			}
			if err != nil && err != solvers.ErrNotPositiveDefinite {
				t.Fatalf("%s %s in-process: %v", format, solver, err)
			}
			want := c.Snapshot()
			if want.Total() == 0 {
				t.Fatalf("%s %s: in-process solve counted no operations", format, solver)
			}
			if out.Ops != want || delta != want {
				t.Errorf("%s %s: response ops %+v, metrics delta %+v, in-process %+v",
					format, solver, out.Ops, delta, want)
			}
		}
	}
}
