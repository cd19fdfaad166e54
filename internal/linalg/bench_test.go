package linalg_test

import (
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/matgen"
	"positlab/internal/scaling"
	"positlab/internal/solvers"
)

func benchMatVec(b *testing.B, f arith.Format) {
	a := laplacian1D(1000)
	an := a.ToFormat(f, false)
	x := linalg.NewVec(f, a.N)
	one := f.One()
	for i := range x {
		x[i] = one
	}
	y := linalg.NewVec(f, a.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.MatVec(x, y)
	}
}

func BenchmarkMatVec1000Float64(b *testing.B)   { benchMatVec(b, arith.Float64) }
func BenchmarkMatVec1000Float32(b *testing.B)   { benchMatVec(b, arith.Float32) }
func BenchmarkMatVec1000Float16(b *testing.B)   { benchMatVec(b, arith.Float16) }
func BenchmarkMatVec1000Posit32e2(b *testing.B) { benchMatVec(b, arith.Posit32e2) }
func BenchmarkMatVec1000Posit16e1(b *testing.B) { benchMatVec(b, arith.Posit16e1) }

func BenchmarkMatVecF64Native(b *testing.B) {
	a := laplacian1D(1000)
	x := make([]float64, a.N)
	y := make([]float64, a.N)
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MatVecF64(x, y)
	}
}

func benchDot(b *testing.B, f arith.Format) {
	n := 1024
	x := linalg.NewVec(f, n)
	y := linalg.NewVec(f, n)
	for i := range x {
		x[i] = f.FromFloat64(float64(i%13) - 6)
		y[i] = f.FromFloat64(float64(i%7) - 3)
	}
	var sink arith.Num
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = linalg.Dot(f, x, y)
	}
	sinkNum = sink
}

var sinkNum arith.Num

func BenchmarkDot1024Float64(b *testing.B)   { benchDot(b, arith.Float64) }
func BenchmarkDot1024Float16(b *testing.B)   { benchDot(b, arith.Float16) }
func BenchmarkDot1024Posit32e2(b *testing.B) { benchDot(b, arith.Posit32e2) }
func BenchmarkDot1024Posit16e1(b *testing.B) { benchDot(b, arith.Posit16e1) }

// benchCholesky200 times the full kernel-backed factorization at the
// n=200 size used by the kernel-speedup records (the solvers package
// keeps its own n=100 series; this one stresses longer trailing rows).
func benchCholesky200(b *testing.B, f arith.Format) {
	a := laplacian1D(200).ToDense().ToFormat(f, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solvers.Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky200Float64(b *testing.B)   { benchCholesky200(b, arith.Float64) }
func BenchmarkCholesky200Float32(b *testing.B)   { benchCholesky200(b, arith.Float32) }
func BenchmarkCholesky200Float16(b *testing.B)   { benchCholesky200(b, arith.Float16) }
func BenchmarkCholesky200BFloat16(b *testing.B)  { benchCholesky200(b, arith.BFloat16) }
func BenchmarkCholesky200Posit32e2(b *testing.B) { benchCholesky200(b, arith.Posit32e2) }
func BenchmarkCholesky200Posit16e2(b *testing.B) { benchCholesky200(b, arith.Posit16e2) }
func BenchmarkCholesky200Posit16e1(b *testing.B) { benchCholesky200(b, arith.Posit16e1) }

// denseDominant is a dense, diagonally dominant SPD matrix (diagonal
// 256, off-diagonal 1/(1+(i+j) mod 7)). The Laplacian above leaves
// 19701 of its 19900 trailing-update multipliers zero, rows the solver
// skips, so its factor mostly times the pivots and the one kernel row
// per step; this one has no zero multiplier, so every trailing-update
// element is a rounded multiply-add.
func denseDominant(n int) *linalg.Dense {
	a := linalg.NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 256.0
			if i != j {
				v = 1 / float64(1+(i+j)%7)
			}
			a.Set(i, j, v)
		}
	}
	return a
}

func benchCholesky200Dense(b *testing.B, f arith.Format) {
	a := denseDominant(200).ToFormat(f, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solvers.Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky200DenseFloat32(b *testing.B)   { benchCholesky200Dense(b, arith.Float32) }
func BenchmarkCholesky200DensePosit32e2(b *testing.B) { benchCholesky200Dense(b, arith.Posit32e2) }
func BenchmarkCholesky200DensePosit32e3(b *testing.B) { benchCholesky200Dense(b, arith.Posit32e3) }
func BenchmarkCholesky200DensePosit16e1(b *testing.B) { benchCholesky200Dense(b, arith.Posit16e1) }

// gradedDense is denseDominant(n) scaled symmetrically, D·A·D with
// D = diag(2^(-10+12i/(n-1))), so its diagonal spans 2^-12 to 2^12, as
// the diagonals of Table III's scaled matrices do. Many of its
// trailing-update products fall below a 16-bit format's scales with
// fraction bits: into a posit's region scales, past its minpos, into
// an IEEE format's subnormals and below them.
func gradedDense(n int) *linalg.Dense {
	a := denseDominant(n)
	d := make([]float64, n)
	for i := range d {
		d[i] = math.Exp2(-10 + 12*float64(i)/float64(n-1))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, d[i]*a.At(i, j)*d[j])
		}
	}
	return a
}

func benchCholesky200Graded(b *testing.B, f arith.Format) {
	a := gradedDense(200).ToFormat(f, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solvers.Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky200GradedFloat16(b *testing.B)   { benchCholesky200Graded(b, arith.Float16) }
func BenchmarkCholesky200GradedPosit16e1(b *testing.B) { benchCholesky200Graded(b, arith.Posit16e1) }

func BenchmarkLanczos(b *testing.B) {
	a := laplacian1D(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := linalg.Lanczos(a, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEigenvalues100(b *testing.B) {
	a := laplacian1D(100).ToDense()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.SymEigenvalues(a); err != nil {
			b.Fatal(err)
		}
	}
}

// cholF64Factor is the float64 image of a 16-bit Cholesky factor of a
// suite matrix, as mixed IR refines through it: the Table II factor of
// the matrix cast as it is (scaled false), or the Table III factor of
// Higham's μ·R·A·R (scaled true), with its right-hand side.
func cholF64Factor(b *testing.B, name string, f arith.Format, scaled bool) (*linalg.Dense, []float64) {
	tgt, err := matgen.TargetByName(name)
	if err != nil {
		b.Fatal(err)
	}
	m := matgen.Generate(tgt)
	ah := m.A.ToDense()
	if scaled {
		rs, mu := scaling.HighamEquilibrate(m.A, 1e-8, 100), scaling.MuFor(f)
		for i := 0; i < ah.N; i++ {
			for j := 0; j < ah.N; j++ {
				ah.Set(i, j, ah.At(i, j)*rs[i]*rs[j])
			}
		}
		for i := range ah.A {
			ah.A[i] *= mu
		}
	}
	r, err := solvers.Cholesky(ah.ToFormat(f, true))
	if err != nil {
		b.Fatal(err)
	}
	return r.ToFloat64(), m.B
}

// benchSolveCholF64 times one float64 Cholesky solve, the triangular
// pair of every refinement step, on a factor indexed beforehand.
func benchSolveCholF64(b *testing.B, name string, f arith.Format, scaled bool) {
	rf, rhs := cholF64Factor(b, name, f, scaled)
	cf := linalg.NewCholF64(rf)
	y := make([]float64, len(rhs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(y, rhs)
		cf.Solve(y)
	}
}

// BenchmarkSolveCholF64Sparse solves with the unscaled Posit(16,1)
// factor of 685_bus, 6344 of whose 234955 stored entries are nonzero:
// the Table II case whose 1000 refinement steps dominate table2.
func BenchmarkSolveCholF64Sparse(b *testing.B) {
	benchSolveCholF64(b, "685_bus", arith.Posit16e1, false)
}

// BenchmarkSolveCholF64Dense solves with the Higham-scaled Float16
// factor of msc00726, 95% of whose stored entries are nonzero.
func BenchmarkSolveCholF64Dense(b *testing.B) {
	benchSolveCholF64(b, "msc00726", arith.Float16, true)
}
