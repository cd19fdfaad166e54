package matgen_test

import (
	"math"
	"testing"

	"positlab/internal/linalg"
	"positlab/internal/matgen"
	"positlab/internal/solvers"
)

func TestPoisson2D(t *testing.T) {
	s, err := matgen.Poisson2D(8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 48 {
		t.Fatalf("N = %d", s.N)
	}
	if !s.IsSymmetric(1e-15) {
		t.Fatal("not symmetric")
	}
	// Analytic spectrum: λ = 4 - 2cos(iπ/(nx+1)) - 2cos(jπ/(ny+1)).
	eigs, err := linalg.SymEigenvaluesSparse(s)
	if err != nil {
		t.Fatal(err)
	}
	wantMin := 4 - 2*math.Cos(math.Pi/9) - 2*math.Cos(math.Pi/7)
	wantMax := 4 - 2*math.Cos(8*math.Pi/9) - 2*math.Cos(6*math.Pi/7)
	if math.Abs(eigs[0]-wantMin) > 1e-10 {
		t.Errorf("λmin = %.12g, want %.12g", eigs[0], wantMin)
	}
	if math.Abs(eigs[len(eigs)-1]-wantMax) > 1e-10 {
		t.Errorf("λmax = %.12g, want %.12g", eigs[len(eigs)-1], wantMax)
	}
	if _, err := matgen.Poisson2D(0, 5); err == nil {
		t.Error("invalid grid must error")
	}
}

func TestRandomSPD(t *testing.T) {
	s, err := matgen.RandomSPD(120, 1e6, 5e3, 6, 50, 42)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 120 || !s.IsSymmetric(1e-12) {
		t.Fatal("shape wrong")
	}
	if norm := linalg.Norm2Est(s); math.Abs(norm-5e3)/5e3 > 1e-6 {
		t.Errorf("norm = %g, want 5e3", norm)
	}
	if cond := solvers.CondViaCholesky(s); math.Abs(math.Log10(cond)-6) > 0.15 {
		t.Errorf("cond = %g, want ~1e6", cond)
	}
	// Determinism.
	s2, _ := matgen.RandomSPD(120, 1e6, 5e3, 6, 50, 42)
	for i := range s.Val {
		if s.Val[i] != s2.Val[i] {
			t.Fatal("not deterministic")
		}
	}
	if _, err := matgen.RandomSPD(1, 10, 1, 2, 0, 1); err == nil {
		t.Error("n=1 must error")
	}
	if _, err := matgen.RandomSPD(10, 0.5, 1, 2, 0, 1); err == nil {
		t.Error("cond<1 must error")
	}
}

func TestConvectionDiffusion1D(t *testing.T) {
	// p = 0 degenerates to the symmetric Laplacian.
	s, err := matgen.ConvectionDiffusion1D(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsSymmetric(1e-15) || s.At(0, 0) != 2 || s.At(0, 1) != -1 {
		t.Fatal("p=0 must be the Laplacian")
	}
	// p > 0 is nonsymmetric with the upwind stencil.
	p := 10.0
	n := 9
	s, err = matgen.ConvectionDiffusion1D(n, p)
	if err != nil {
		t.Fatal(err)
	}
	h := 1.0 / float64(n+1)
	c := 2 * p * h
	if s.At(1, 1) != 2+c || s.At(1, 0) != -(1+c) || s.At(1, 2) != -1 {
		t.Fatalf("stencil wrong: %g %g %g", s.At(1, 1), s.At(1, 0), s.At(1, 2))
	}
	if s.IsSymmetric(1e-15) {
		t.Fatal("p>0 must be nonsymmetric")
	}
	// Row sums of interior rows vanish except for the convection bias.
	if _, err := matgen.ConvectionDiffusion1D(1, 0); err == nil {
		t.Error("n=1 must error")
	}
	if _, err := matgen.ConvectionDiffusion1D(10, -1); err == nil {
		t.Error("negative Peclet must error")
	}
}

func TestDiagonal(t *testing.T) {
	s, err := matgen.Diagonal(64, 1e8, 2.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	eigs, err := linalg.SymEigenvaluesSparse(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eigs[len(eigs)-1]-2.0) > 1e-12 {
		t.Errorf("λmax = %g", eigs[len(eigs)-1])
	}
	if math.Abs(eigs[0]-2e-8) > 1e-20 {
		t.Errorf("λmin = %g", eigs[0])
	}
	if s.NNZ() != 64 {
		t.Errorf("NNZ = %d", s.NNZ())
	}
	if _, err := matgen.Diagonal(0, 10, 1, 1); err == nil {
		t.Error("n=0 must error")
	}
}
