package solvers_test

import (
	"context"
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/solvers"
)

func TestBiCGConverges(t *testing.T) {
	a := laplacian1D(40)
	want, b := onesRHS(a)
	for _, f := range []arith.Format{arith.Float64, arith.Float32, arith.Posit32e2} {
		an := a.ToFormat(f, false)
		res, _ := solvers.BiCG(context.Background(), an, linalg.VecFromFloat64(f, b), 1e-5, 10*a.N)
		if res.Failed || !res.Converged {
			t.Fatalf("%s: %+v", f.Name(), res)
		}
		for i := range want {
			if math.Abs(res.X[i]-want[i]) > 1e-3 {
				t.Fatalf("%s: x[%d] = %g", f.Name(), i, res.X[i])
			}
		}
		if res.MaxIterate <= 0 {
			t.Errorf("%s: MaxIterate not tracked", f.Name())
		}
	}
}

// On SPD systems BiCG follows the same Krylov space as CG; iteration
// counts should be comparable and the residual recurrences consistent.
func TestBiCGMatchesCGOnSPD(t *testing.T) {
	a := laplacian1D(60)
	_, b := onesRHS(a)
	f := arith.Float64
	an := a.ToFormat(f, false)
	bn := linalg.VecFromFloat64(f, b)
	cg := solvers.CG(an, bn, 1e-5, 10*a.N)
	bicg, _ := solvers.BiCG(context.Background(), an, bn, 1e-5, 10*a.N)
	if !cg.Converged || !bicg.Converged {
		t.Fatal("both must converge")
	}
	diff := bicg.Iterations - cg.Iterations
	if diff < -2 || diff > 2 {
		t.Errorf("BiCG %d vs CG %d iterations on SPD", bicg.Iterations, cg.Iterations)
	}
}

// BiCG must solve genuinely nonsymmetric systems (convection-diffusion)
// where CG is inapplicable.
func TestBiCGNonsymmetric(t *testing.T) {
	n := 60
	var entries []linalg.Entry
	for i := 0; i < n; i++ {
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 2.4})
		if i > 0 {
			entries = append(entries, linalg.Entry{Row: i, Col: i - 1, Val: -1.4})
		}
		if i+1 < n {
			entries = append(entries, linalg.Entry{Row: i, Col: i + 1, Val: -1})
		}
	}
	a, err := linalg.NewSparseFromEntries(n, entries, false)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = 1 + float64(i%5)
	}
	b := make([]float64, n)
	a.MatVecF64(want, b)
	f := arith.Float64
	res, _ := solvers.BiCG(context.Background(), a.ToFormat(f, false), linalg.VecFromFloat64(f, b), 1e-10, 20*n)
	if res.Failed || !res.Converged {
		t.Fatalf("%+v", res)
	}
	if be := solvers.BackwardError(a, b, res.X); be > 1e-9 {
		t.Fatalf("backward error %g", be)
	}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %g, want %g", i, res.X[i], want[i])
		}
	}
}

func TestBiCGZeroRHS(t *testing.T) {
	a := laplacian1D(10)
	f := arith.Float64
	res, _ := solvers.BiCG(context.Background(), a.ToFormat(f, false), linalg.NewVec(f, 10), 1e-5, 100)
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero rhs: %+v", res)
	}
}

func TestBiCGFailurePath(t *testing.T) {
	var entries []linalg.Entry
	n := 8
	for i := 0; i < n; i++ {
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 1e8})
	}
	a, _ := linalg.NewSparseFromEntries(n, entries, true)
	f := arith.Float16
	b := make([]float64, n)
	for i := range b {
		b[i] = 1e8
	}
	res, _ := solvers.BiCG(context.Background(), a.ToFormat(f, false), linalg.VecFromFloat64(f, b), 1e-5, 100)
	if !res.Failed || res.Converged {
		t.Fatalf("expected failure: %+v", res)
	}
}
