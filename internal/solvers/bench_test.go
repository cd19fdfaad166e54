package solvers_test

import (
	"context"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/solvers"
)

func benchCholesky(b *testing.B, f arith.Format) {
	a := laplacian1D(100).ToDense().ToFormat(f, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solvers.Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky100Float64(b *testing.B)   { benchCholesky(b, arith.Float64) }
func BenchmarkCholesky100Float32(b *testing.B)   { benchCholesky(b, arith.Float32) }
func BenchmarkCholesky100Float16(b *testing.B)   { benchCholesky(b, arith.Float16) }
func BenchmarkCholesky100Posit32e2(b *testing.B) { benchCholesky(b, arith.Posit32e2) }
func BenchmarkCholesky100Posit16e2(b *testing.B) { benchCholesky(b, arith.Posit16e2) }

func benchCG(b *testing.B, f arith.Format) {
	a := laplacian1D(200)
	_, rhs := onesRHS(a)
	an := a.ToFormat(f, false)
	bn := linalg.VecFromFloat64(f, rhs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := solvers.CG(an, bn, 1e-5, 10*a.N)
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

func BenchmarkCG200Float64(b *testing.B)   { benchCG(b, arith.Float64) }
func BenchmarkCG200Float32(b *testing.B)   { benchCG(b, arith.Float32) }
func BenchmarkCG200Posit32e2(b *testing.B) { benchCG(b, arith.Posit32e2) }

func benchMixedIR(b *testing.B, f arith.Format) {
	a := laplacian1D(100)
	_, rhs := onesRHS(a)
	for i := 0; i < b.N; i++ {
		res := solvers.MixedIR(a, rhs, f, solvers.IRScaling{}, solvers.IROptions{})
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

func BenchmarkMixedIRFloat16(b *testing.B)   { benchMixedIR(b, arith.Float16) }
func BenchmarkMixedIRBFloat16(b *testing.B)  { benchMixedIR(b, arith.BFloat16) }
func BenchmarkMixedIRPosit16e1(b *testing.B) { benchMixedIR(b, arith.Posit16e1) }
func BenchmarkMixedIRPosit16e2(b *testing.B) { benchMixedIR(b, arith.Posit16e2) }

func BenchmarkGMRESIRFloat16(b *testing.B) {
	a := laplacian1D(100)
	_, rhs := onesRHS(a)
	for i := 0; i < b.N; i++ {
		res, _ := solvers.MixedIRGMRES(context.Background(), a, rhs, arith.Float16, solvers.IRScaling{}, solvers.IROptions{}, solvers.GMRESOptions{})
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}
