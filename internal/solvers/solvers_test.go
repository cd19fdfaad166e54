package solvers_test

import (
	"context"
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/posit"
	"positlab/internal/solvers"
)

func laplacian1D(n int) *linalg.Sparse {
	var entries []linalg.Entry
	for i := 0; i < n; i++ {
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 2})
		if i+1 < n {
			entries = append(entries, linalg.Entry{Row: i, Col: i + 1, Val: -1})
		}
	}
	s, err := linalg.NewSparseFromEntries(n, entries, true)
	if err != nil {
		panic(err)
	}
	return s
}

// rhs for the known solution x = (1, 1, ..., 1).
func onesRHS(a *linalg.Sparse) ([]float64, []float64) {
	x := make([]float64, a.N)
	for i := range x {
		x[i] = 1
	}
	b := make([]float64, a.N)
	a.MatVecF64(x, b)
	return x, b
}

func TestCGConvergesAllFormats(t *testing.T) {
	a := laplacian1D(50)
	want, b := onesRHS(a)
	for _, f := range []arith.Format{arith.Float64, arith.Float32, arith.Posit32e2, arith.Posit32e3} {
		an := a.ToFormat(f, false)
		bn := linalg.VecFromFloat64(f, b)
		res := solvers.CG(an, bn, 1e-5, 10*a.N)
		if !res.Converged || res.Failed {
			t.Fatalf("%s: CG did not converge: %+v", f.Name(), res)
		}
		// 1D Laplacian with exact arithmetic converges in <= n steps.
		if res.Iterations > a.N+5 {
			t.Errorf("%s: CG took %d iterations", f.Name(), res.Iterations)
		}
		for i := range want {
			if math.Abs(res.X[i]-want[i]) > 1e-3 {
				t.Fatalf("%s: x[%d] = %g, want 1", f.Name(), i, res.X[i])
			}
		}
		if be := solvers.BackwardError(a, b, res.X); be > 1e-5 {
			t.Errorf("%s: backward error %g > 1e-5", f.Name(), be)
		}
	}
}

func TestCGExactStart(t *testing.T) {
	// b = 0 means x = 0 converges immediately.
	a := laplacian1D(10)
	f := arith.Float64
	an := a.ToFormat(f, false)
	res := solvers.CG(an, linalg.NewVec(f, 10), 1e-5, 100)
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero rhs: %+v", res)
	}
	// tol ≥ 1 means x = 0 meets the stopping test for any b, and the
	// reported residual is that of x = 0: ‖b‖/‖b‖ = 1.
	_, b := onesRHS(a)
	res = solvers.CG(an, linalg.VecFromFloat64(f, b), 2, 100)
	if !res.Converged || res.Iterations != 0 || res.RelResidual != 1 {
		t.Fatalf("tol 2: converged %v after %d iterations, residual %g; want true, 0, 1",
			res.Converged, res.Iterations, res.RelResidual)
	}
}

// BiCG, PCG and quire CG report the residual of x = 0, as CG does,
// when x₀ = 0 already meets tol.
func TestExactStartVariants(t *testing.T) {
	a := laplacian1D(10)
	f, c := arith.Float64, posit.Posit32e2
	_, b := onesRHS(a)
	bicg, _ := solvers.BiCG(context.Background(), a.ToFormat(f, false), linalg.VecFromFloat64(f, b), 2, 100)
	pcg := solvers.PCG(a.ToFormat(f, false), diagOf(f, a), linalg.VecFromFloat64(f, b), 2, 100)
	quire := newQuireSolver(c, a).Solve(positRHS(c, b), 2, 100)
	for _, r := range []struct {
		name      string
		converged bool
		iters     int
		rel       float64
	}{
		{"BiCG", bicg.Converged, bicg.Iterations, bicg.RelResidual},
		{"PCG", pcg.Converged, pcg.Iterations, pcg.RelResidual},
		{"CGQuire", quire.Converged, quire.Iterations, quire.RelResidual},
	} {
		if !r.converged || r.iters != 0 || r.rel != 1 {
			t.Errorf("%s, tol 2: converged %v after %d iterations, residual %g; want true, 0, 1",
				r.name, r.converged, r.iters, r.rel)
		}
	}
}

func TestCGFailurePath(t *testing.T) {
	// A matrix far outside Float16 range, cast unclamped: the matvec
	// meets Inf and CG must flag failure, not loop or lie.
	var entries []linalg.Entry
	n := 8
	for i := 0; i < n; i++ {
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 1e8})
	}
	a, _ := linalg.NewSparseFromEntries(n, entries, true)
	f := arith.Float16
	an := a.ToFormat(f, false)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1e8
	}
	res := solvers.CG(an, linalg.VecFromFloat64(f, b), 1e-5, 100)
	if !res.Failed {
		t.Fatalf("expected arithmetic failure, got %+v", res)
	}
	if res.Converged {
		t.Fatal("failed run must not report convergence")
	}
}

func TestCholeskyKnownFactor(t *testing.T) {
	// A = [[4, 2], [2, 5]] = RᵀR with R = [[2, 1], [0, 2]].
	d := linalg.NewDense(2)
	d.Set(0, 0, 4)
	d.Set(0, 1, 2)
	d.Set(1, 0, 2)
	d.Set(1, 1, 5)
	for _, f := range []arith.Format{arith.Float64, arith.Float32, arith.Posit32e2, arith.Float16, arith.Posit16e2} {
		r, err := solvers.Cholesky(d.ToFormat(f, false))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		rf := r.ToFloat64()
		if rf.At(0, 0) != 2 || rf.At(0, 1) != 1 || rf.At(1, 1) != 2 || rf.At(1, 0) != 0 {
			t.Fatalf("%s: R = %v", f.Name(), rf.A)
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	a := laplacian1D(30)
	want, b := onesRHS(a)
	d := a.ToDense()
	for _, f := range []arith.Format{arith.Float64, arith.Float32, arith.Posit32e2, arith.Posit32e3} {
		x, err := solvers.CholeskySolve(d.ToFormat(f, false), linalg.VecFromFloat64(f, b))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		xf := linalg.VecToFloat64(f, x)
		for i := range want {
			if math.Abs(xf[i]-want[i]) > 1e-3 {
				t.Fatalf("%s: x[%d] = %g", f.Name(), i, xf[i])
			}
		}
		if be := solvers.BackwardError(a, b, xf); be > 1e-5 {
			t.Errorf("%s: backward error %g", f.Name(), be)
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	d := linalg.NewDense(2)
	d.Set(0, 0, 1)
	d.Set(0, 1, 2)
	d.Set(1, 0, 2)
	d.Set(1, 1, 1) // eigenvalues 3, -1
	if _, err := solvers.Cholesky(d.ToFormat(arith.Float64, false)); err == nil {
		t.Fatal("indefinite matrix must fail")
	}
	z := linalg.NewDense(2) // zero matrix: zero pivot
	if _, err := solvers.Cholesky(z.ToFormat(arith.Float64, false)); err == nil {
		t.Fatal("zero matrix must fail")
	}
}

func TestTriangularSolves(t *testing.T) {
	f := arith.Float64
	// R = [[2, 1, 0], [0, 3, 1], [0, 0, 4]].
	r := linalg.NewDenseNum(f, 3)
	set := func(i, j int, v float64) { r.Set(i, j, f.FromFloat64(v)) }
	set(0, 0, 2)
	set(0, 1, 1)
	set(1, 1, 3)
	set(1, 2, 1)
	set(2, 2, 4)
	// Solve R x = y for y = R*(1,2,3): y = (4, 9, 12).
	y := linalg.VecFromFloat64(f, []float64{4, 9, 12})
	x := linalg.VecToFloat64(f, solvers.SolveUpper(r, y))
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(x[i]-want) > 1e-14 {
			t.Fatalf("SolveUpper: x = %v", x)
		}
	}
	// Rᵀ z = c for c = Rᵀ(1,2,3): c = (2, 7, 14).
	c := linalg.VecFromFloat64(f, []float64{2, 7, 14})
	z := linalg.VecToFloat64(f, solvers.SolveLowerT(r, c))
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(z[i]-want) > 1e-14 {
			t.Fatalf("SolveLowerT: z = %v", z)
		}
	}
}

func TestFactorizationError(t *testing.T) {
	a := laplacian1D(20).ToDense()
	r, err := solvers.Cholesky(a.ToFormat(arith.Float64, false))
	if err != nil {
		t.Fatal(err)
	}
	if fe := solvers.FactorizationError(a, r); fe > 1e-14 {
		t.Fatalf("float64 factorization error = %g", fe)
	}
	// Low precision factor has commensurately larger error.
	r16, err := solvers.Cholesky(a.ToFormat(arith.Float16, false))
	if err != nil {
		t.Fatal(err)
	}
	fe := solvers.FactorizationError(a, r16)
	if fe < 1e-6 || fe > 1e-2 {
		t.Fatalf("float16 factorization error = %g, expected ~1e-4", fe)
	}
}

func TestMixedIRConverges(t *testing.T) {
	a := laplacian1D(40)
	want, b := onesRHS(a)
	for _, f := range []arith.Format{arith.Float16, arith.Posit16e1, arith.Posit16e2, arith.BFloat16} {
		res := solvers.MixedIR(a, b, f, solvers.IRScaling{}, solvers.IROptions{})
		if res.FactorFailed || !res.Converged {
			t.Fatalf("%s: %+v", f.Name(), res)
		}
		if res.Iterations < 1 || res.Iterations > 50 {
			t.Errorf("%s: %d iterations", f.Name(), res.Iterations)
		}
		for i := range want {
			if math.Abs(res.X[i]-want[i]) > 1e-10 {
				t.Fatalf("%s: x[%d] = %g", f.Name(), i, res.X[i])
			}
		}
		if res.FactorError <= 0 || res.FactorError > 1e-2 {
			t.Errorf("%s: factor error %g", f.Name(), res.FactorError)
		}
	}
	// Float64 "low" precision converges in one step.
	res := solvers.MixedIR(a, b, arith.Float64, solvers.IRScaling{}, solvers.IROptions{})
	if !res.Converged || res.Iterations > 2 {
		t.Fatalf("float64 IR: %+v", res)
	}
}

func TestMixedIRFactorFailureAndRescue(t *testing.T) {
	// Tridiagonal SPD matrix with entries around 1e9, far beyond
	// Float16's 65504: clamping flattens diagonal and off-diagonal to
	// the same value, destroying positive definiteness, so the naive
	// Float16 factorization must fail — while posit(16,2)'s reach
	// (maxpos 2^56) loads it unharmed. This is the Table II mechanism.
	n := 6
	var entries []linalg.Entry
	for i := 0; i < n; i++ {
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 1e9})
		if i+1 < n {
			entries = append(entries, linalg.Entry{Row: i, Col: i + 1, Val: 0.49e9})
		}
	}
	a, _ := linalg.NewSparseFromEntries(n, entries, true)
	_, b := onesRHS(a)

	naive := solvers.MixedIR(a, b, arith.Float16, solvers.IRScaling{}, solvers.IROptions{})
	if !naive.FactorFailed && naive.Converged {
		t.Fatalf("naive Float16 IR unexpectedly converged on out-of-range matrix: %+v", naive)
	}

	// Posit(16,2) has the reach to load this matrix (max ~7.2e16).
	p := solvers.MixedIR(a, b, arith.Posit16e2, solvers.IRScaling{}, solvers.IROptions{})
	if p.FactorFailed {
		t.Fatalf("posit(16,2) IR factorization failed: %+v", p)
	}
}

func TestBackwardErrorZeroRHS(t *testing.T) {
	a := laplacian1D(4)
	x := make([]float64, 4)
	b := make([]float64, 4)
	if be := solvers.BackwardError(a, b, x); be != 0 {
		t.Fatalf("zero system backward error = %g", be)
	}
}
