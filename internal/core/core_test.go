package core_test

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/core"
	"positlab/internal/linalg"
	"positlab/internal/matgen"
	"positlab/internal/mmarket"
	"positlab/internal/solvers"
)

func testProblem(t *testing.T) core.Problem {
	t.Helper()
	var entries []linalg.Entry
	n := 40
	for i := 0; i < n; i++ {
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 2})
		if i+1 < n {
			entries = append(entries, linalg.Entry{Row: i, Col: i + 1, Val: -1})
		}
	}
	p, err := core.ProblemFromEntries(n, entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSolveAllMethodsAndFormats(t *testing.T) {
	p := testProblem(t)
	for _, format := range []string{"float64", "float32", "posit32es2", "posit(32,3)"} {
		for _, method := range []core.Method{core.MethodCG, core.MethodCholesky} {
			sol, err := core.Solve(p, core.Config{Format: format, Method: method})
			if err != nil {
				t.Fatalf("%s/%v: %v", format, method, err)
			}
			if !sol.Converged {
				t.Fatalf("%s/%v: not converged", format, method)
			}
			tol := 1e-4
			if method == core.MethodCholesky {
				tol = 1e-5
			}
			if sol.BackwardError > tol {
				t.Errorf("%s/%v: backward error %g", format, method, sol.BackwardError)
			}
		}
	}
	for _, format := range []string{"float16", "posit16es1", "posit16es2", "bfloat16"} {
		sol, err := core.Solve(p, core.Config{Format: format, Method: core.MethodMixedIR})
		if err != nil {
			t.Fatalf("%s/ir: %v", format, err)
		}
		if !sol.Converged || sol.BackwardError > 1e-12 {
			t.Fatalf("%s/ir: %+v", format, sol)
		}
	}
}

func TestMethodStrings(t *testing.T) {
	for m, want := range map[core.Method]string{
		core.MethodCG:       "cg",
		core.MethodCholesky: "cholesky",
		core.MethodMixedIR:  "ir",
		core.Method(99):     "method(99)",
	} {
		if m.String() != want {
			t.Errorf("method %d = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestSolveRescaling(t *testing.T) {
	// A badly scaled replica: CG in posit(32,2) improves with the
	// pow2 rescale; Higham + IR converges for Float16.
	m := matgen.Generate(mustTarget(t, "bcsstk01"))
	p := core.Problem{A: m.A, B: m.B}

	plain, err := core.Solve(p, core.Config{Format: "posit32es2", Method: core.MethodCG})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := core.Solve(p, core.Config{Format: "posit32es2", Method: core.MethodCG, Rescale: core.RescaleInfNormPow2})
	if err != nil {
		t.Fatal(err)
	}
	if scaled.ScaleFactor == 1 {
		t.Error("expected a nontrivial scale factor")
	}
	if scaled.Iterations >= plain.Iterations {
		t.Errorf("rescaled CG took %d >= %d iterations", scaled.Iterations, plain.Iterations)
	}

	diag, err := core.Solve(p, core.Config{Format: "posit32es2", Method: core.MethodCholesky, Rescale: core.RescaleDiagAvg})
	if err != nil {
		t.Fatal(err)
	}
	if diag.BackwardError > 1e-7 {
		t.Errorf("diag-rescaled Cholesky backward error %g", diag.BackwardError)
	}

	ir, err := core.Solve(p, core.Config{Format: "float16", Method: core.MethodMixedIR, Rescale: core.RescaleHigham})
	if err != nil {
		t.Fatal(err)
	}
	if !ir.Converged {
		t.Errorf("Higham-scaled Float16 IR did not converge: %+v", ir)
	}
}

func TestSolveErrors(t *testing.T) {
	p := testProblem(t)
	if _, err := core.Solve(p, core.Config{Format: "float128", Method: core.MethodCG}); err == nil {
		t.Error("unknown format must error")
	}
	if _, err := core.Solve(p, core.Config{Format: "float64", Method: core.Method(99)}); err == nil {
		t.Error("unknown method must error")
	}
	if _, err := core.Solve(p, core.Config{Format: "float64", Method: core.MethodCG, Rescale: core.RescaleHigham}); err == nil {
		t.Error("Higham + CG must be rejected")
	}
	if _, err := core.Solve(core.Problem{}, core.Config{Format: "float64"}); err == nil {
		t.Error("empty problem must error")
	}
	// A negative tol would stop CG at x = 0 as converged; a negative
	// cap would report -1 refinement steps.
	for _, cfg := range []core.Config{
		{Format: "float64", Method: core.MethodCG, Tol: -1},
		{Format: "float64", Method: core.MethodCG, MaxIter: -1},
		{Format: "float16", Method: core.MethodMixedIR, Tol: -1},
		{Format: "float16", Method: core.MethodMixedIR, MaxIter: -1},
	} {
		if sol, err := core.Solve(p, cfg); err == nil {
			t.Errorf("%+v accepted: %+v", cfg, sol)
		}
	}
	// Out-of-range Float16 direct factorization fails loudly.
	m := matgen.Generate(mustTarget(t, "bcsstk01"))
	if _, err := core.Solve(core.Problem{A: m.A, B: m.B}, core.Config{Format: "float16", Method: core.MethodMixedIR}); err == nil {
		t.Error("naive Float16 IR on bcsstk01 should fail")
	}
	// Wrong rhs length.
	if _, err := core.ProblemFromEntries(2, []linalg.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}}, []float64{1}); err == nil {
		t.Error("bad rhs length must error")
	}
}

// TestParseConfig maps served names to configs: solver names in any
// case and spacing, each solver's own rescaling, and the same
// validation SolveCtx applies.
func TestParseConfig(t *testing.T) {
	for _, c := range []struct {
		solver          string
		rescale, higham bool
		want            core.Config
	}{
		{" CG ", false, false, core.Config{Method: core.MethodCG}},
		{"cg", true, false, core.Config{Method: core.MethodCG, Rescale: core.RescaleInfNormPow2}},
		{"Cholesky", true, false, core.Config{Method: core.MethodCholesky, Rescale: core.RescaleDiagAvg}},
		{"ir", false, false, core.Config{Method: core.MethodMixedIR}},
		{"ir", false, true, core.Config{Method: core.MethodMixedIR, Rescale: core.RescaleHigham}},
	} {
		got, err := core.ParseConfig(c.solver, "posit16es1", c.rescale, c.higham, 1e-6, 7)
		c.want.Format, c.want.Tol, c.want.MaxIter = "posit16es1", 1e-6, 7
		if err != nil || got != c.want {
			t.Errorf("ParseConfig(%q, rescale %v, higham %v) = %+v, %v; want %+v", c.solver, c.rescale, c.higham, got, err, c.want)
		}
	}
	for name, parse := range map[string]func() (core.Config, error){
		"unknown solver":    func() (core.Config, error) { return core.ParseConfig("lu", "float32", false, false, 0, 0) },
		"unknown format":    func() (core.Config, error) { return core.ParseConfig("cg", "float99", false, false, 0, 0) },
		"negative tol":      func() (core.Config, error) { return core.ParseConfig("cg", "float32", false, false, -1, 0) },
		"negative max_iter": func() (core.Config, error) { return core.ParseConfig("ir", "float16", false, true, 0, -1) },
	} {
		if cfg, err := parse(); err == nil {
			t.Errorf("%s accepted: %+v", name, cfg)
		}
	}
	// A preparation the solver does not take is refused, naming both.
	for _, c := range []struct {
		solver, flag    string
		rescale, higham bool
	}{
		{" CG ", "higham", false, true},
		{"cg", "higham", true, true},
		{"Cholesky", "higham", true, true},
		{"cholesky", "higham", false, true},
		{"ir", "rescale", true, false},
		{"IR", "rescale", true, true},
	} {
		cfg, err := core.ParseConfig(c.solver, "posit16es1", c.rescale, c.higham, 0, 0)
		name := strings.ToLower(strings.TrimSpace(c.solver))
		if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("ParseConfig(%q, rescale %v, higham %v) = %+v, %v; want an error naming %s and %s",
				c.solver, c.rescale, c.higham, cfg, err, name, c.flag)
		}
	}
}

// TestSolveCtxHooks: observers see the run without changing a bit of
// it, Phase is told each phase in order, and a breakdown is a Failed
// solution rather than an error.
func TestSolveCtxHooks(t *testing.T) {
	p := testProblem(t)
	ctx := context.Background()
	for _, c := range []struct {
		method core.Method
		phases []string
	}{
		{core.MethodCG, []string{"cg"}},
		{core.MethodCholesky, []string{"factor", "solve"}},
		{core.MethodMixedIR, []string{"factor"}},
	} {
		cfg := core.Config{Format: "posit16es2", Method: c.method}
		plain, err := core.SolveCtx(ctx, p, cfg, core.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		var ops arith.AtomicOpCounts
		var phases []string
		seen, err := core.SolveCtx(ctx, p, cfg, core.Hooks{
			Observers: []arith.Observer{&ops},
			Phase:     func(s string) { phases = append(phases, s) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seen.X, plain.X) || seen.Iterations != plain.Iterations || ops.Snapshot().Total() == 0 {
			t.Errorf("%v: observed run differs or counted nothing: %d vs %d iterations, %+v", c.method, seen.Iterations, plain.Iterations, ops.Snapshot())
		}
		if !reflect.DeepEqual(phases, c.phases) {
			t.Errorf("%v: phases %q, want %q", c.method, phases, c.phases)
		}
		if (seen.Factor != nil) != (c.method == core.MethodCholesky) {
			t.Errorf("%v: factor %v", c.method, seen.Factor != nil)
		}
	}

	// float16 holds diag(0.001, 1) but not x₀ = 1000/0.001 = 10⁶.
	over, err := core.ProblemFromEntries(2, []linalg.Entry{{Row: 0, Col: 0, Val: 0.001}, {Row: 1, Col: 1, Val: 1}}, []float64{1000, 1})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.SolveCtx(ctx, over, core.Config{Format: "float16", Method: core.MethodCholesky}, core.Hooks{})
	if err != nil || !sol.Failed || sol.Converged || sol.X != nil || sol.Factor == nil {
		t.Errorf("overflowing solution: %+v, %v; want failed with a factor", sol, err)
	}
	if _, err := core.Solve(over, core.Config{Format: "float16", Method: core.MethodCholesky}); !errors.Is(err, solvers.ErrNotPositiveDefinite) {
		t.Errorf("Solve of an overflowing solution: %v", err)
	}
}

func TestProblemFromMTX(t *testing.T) {
	m := matgen.Generate(mustTarget(t, "lund_b"))
	path := filepath.Join(t.TempDir(), "lund_b.mtx")
	if err := mmarket.WriteFile(path, m.A, true, nil); err != nil {
		t.Fatal(err)
	}
	p, err := core.ProblemFromMTX(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(p, core.Config{Format: "float64", Method: core.MethodCholesky})
	if err != nil {
		t.Fatal(err)
	}
	// b defaulted to A·x̂, so x ≈ x̂ = 1/√n.
	want := 1 / math.Sqrt(float64(p.A.N))
	for i, x := range sol.X {
		if math.Abs(x-want) > 1e-6*want {
			t.Fatalf("x[%d] = %g, want %g", i, x, want)
		}
	}
	if _, err := core.ProblemFromMTX(filepath.Join(t.TempDir(), "missing.mtx"), nil); err == nil {
		t.Error("missing file must error")
	}
}

func mustTarget(t *testing.T, name string) matgen.Target {
	t.Helper()
	tgt, err := matgen.TargetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}
