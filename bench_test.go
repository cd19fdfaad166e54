package positlab_test

import (
	"context"
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/experiments"
	"positlab/internal/linalg"
	"positlab/internal/matgen"
	"positlab/internal/posit"
	"positlab/internal/scaling"
	"positlab/internal/solvers"
)

// One benchmark per table/figure of the paper, on representative suite
// subsets so a single iteration stays in the hundreds of milliseconds.
// Run `cmd/experiments all` for the full 19-matrix regeneration.

var benchSubset = []string{"lund_b", "bcsstk01", "nos1"}

func benchOpt() experiments.Options {
	return experiments.Options{Matrices: benchSubset}
}

func BenchmarkTable1Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(benchOpt())
		if len(rows) != len(benchSubset) {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig3PrecisionMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig3(nil, 8)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig5Histogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hists := experiments.Fig5(benchOpt())
		if len(hists) != 2 {
			b.Fatal("want two histograms")
		}
	}
}

func BenchmarkFig6CG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(benchOpt())
	}
}

func BenchmarkFig7CGScaled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(benchOpt())
	}
}

func BenchmarkFig8Cholesky(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(benchOpt())
	}
}

func BenchmarkFig9CholeskyScaled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(benchOpt())
	}
}

func BenchmarkTable2MixedIR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(benchOpt())
	}
}

func BenchmarkTable3HighamIR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(benchOpt())
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10(benchOpt())
	}
}

// --- ablations called out in DESIGN.md ---

// BenchmarkAblationQuire compares a dot product rounded per-operation
// against the deferred-rounding quire (§II-C), reporting both cost and
// the accuracy gap as custom metrics.
func BenchmarkAblationQuire(b *testing.B) {
	c := posit.Posit32e2
	n := 4096
	xs := make([]posit.Bits, n)
	ys := make([]posit.Bits, n)
	for i := 0; i < n; i++ {
		xs[i] = c.FromFloat64(math.Sin(float64(i)) * 1e3)
		ys[i] = c.FromFloat64(math.Cos(float64(i)) * 1e-3)
	}
	b.Run("per-op", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := c.Zero()
			for j := 0; j < n; j++ {
				s = c.Add(s, c.Mul(xs[j], ys[j]))
			}
			sinkPosit = s
		}
	})
	b.Run("quire", func(b *testing.B) {
		q := c.NewQuire()
		for i := 0; i < b.N; i++ {
			q.Reset()
			for j := 0; j < n; j++ {
				q.AddProduct(xs[j], ys[j])
			}
			sinkPosit = q.Round()
		}
	})
}

var sinkPosit posit.Bits

// BenchmarkAblationQuireCG compares full CG runs with round-per-op
// reductions against quire-fused reductions in posit(32,2): the
// configuration the paper excluded (§II-C), quantified.
func BenchmarkAblationQuireCG(b *testing.B) {
	m := experiments.Suite([]string{"bcsstk01"})[0]
	a := m.A.Clone()
	rhs := append([]float64(nil), m.B...)
	scaling.RescaleSystemCG(a, rhs)
	c := posit.Posit32e2
	cap := 10 * a.N
	b.Run("round-per-op", func(b *testing.B) {
		f := arith.Posit32e2
		an := a.ToFormat(f, false)
		bn := linalg.VecFromFloat64(f, rhs)
		iters := 0
		for i := 0; i < b.N; i++ {
			iters = solvers.CG(an, bn, 1e-5, cap).Iterations
		}
		b.ReportMetric(float64(iters), "cg-iters")
	})
	b.Run("quire-fused", func(b *testing.B) {
		q := solvers.NewCGQuire(c, a.RowPtr, a.Col, a.Val)
		pb := make([]posit.Bits, len(rhs))
		for i, v := range rhs {
			pb[i] = c.FromFloat64(v)
		}
		iters := 0
		for i := 0; i < b.N; i++ {
			iters = q.Solve(pb, 1e-5, cap).Iterations
		}
		b.ReportMetric(float64(iters), "cg-iters")
	})
}

// BenchmarkAblationES runs CG with posit32 across every exponent-size
// choice, the design axis of §V-A (es=2 vs es=3).
func BenchmarkAblationES(b *testing.B) {
	m := experiments.Suite([]string{"lund_b"})[0]
	for es := 0; es <= 4; es++ {
		f := arith.FastPosit(posit.MustNew(32, es))
		b.Run(f.Name(), func(b *testing.B) {
			an := m.A.ToFormat(f, false)
			bn := linalg.VecFromFloat64(f, m.B)
			iters := 0
			for i := 0; i < b.N; i++ {
				res := solvers.CG(an, bn, 1e-5, 10*m.A.N)
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "cg-iters")
		})
	}
}

// BenchmarkAblationMu sweeps the Higham shift µ for posit(16,1) IR —
// the paper chose USEED after experimentation (§V-D2).
func BenchmarkAblationMu(b *testing.B) {
	m := experiments.Suite([]string{"bcsstk01"})[0]
	r := scaling.HighamEquilibrate(m.A, 1e-8, 100)
	f := arith.Posit16e1
	useed := scaling.MuFor(f)
	for _, mu := range []float64{1, useed, useed * useed, scaling.MuForFloat16(f.MaxValue())} {
		b.Run(muName(mu, useed), func(b *testing.B) {
			iters := 0
			for i := 0; i < b.N; i++ {
				res := solvers.MixedIR(m.A, m.B, f,
					solvers.IRScaling{R: r, Mu: mu}, solvers.IROptions{})
				if res.FactorFailed {
					iters = -1
				} else {
					iters = res.Iterations
				}
			}
			b.ReportMetric(float64(iters), "ir-iters")
		})
	}
}

func muName(mu, useed float64) string {
	switch mu {
	case 1:
		return "mu=1"
	case useed:
		return "mu=USEED"
	case useed * useed:
		return "mu=USEED^2"
	default:
		return "mu=pow4(0.1max)"
	}
}

// BenchmarkAblationPrecondVsRescale compares the paper's global
// power-of-two rescale against Jacobi preconditioning for posit(32,2)
// CG on a large-norm matrix — per-row scaling vs the paper's scalar.
func BenchmarkAblationPrecondVsRescale(b *testing.B) {
	m := experiments.Suite([]string{"bcsstk01"})[0]
	f := arith.Posit32e2
	cap := 10 * m.A.N
	b.Run("plain", func(b *testing.B) {
		an := m.A.ToFormat(f, false)
		bn := linalg.VecFromFloat64(f, m.B)
		iters := 0
		for i := 0; i < b.N; i++ {
			iters = solvers.CG(an, bn, 1e-5, cap).Iterations
		}
		b.ReportMetric(float64(iters), "cg-iters")
	})
	b.Run("jacobi-pcg", func(b *testing.B) {
		an := m.A.ToFormat(f, false)
		bn := linalg.VecFromFloat64(f, m.B)
		d := linalg.VecFromFloat64(f, m.A.Diag())
		iters := 0
		for i := 0; i < b.N; i++ {
			iters = solvers.PCG(an, d, bn, 1e-5, cap).Iterations
		}
		b.ReportMetric(float64(iters), "cg-iters")
	})
	b.Run("rescaled", func(b *testing.B) {
		a2 := m.A.Clone()
		b2 := append([]float64(nil), m.B...)
		scaling.RescaleSystemCG(a2, b2)
		an := a2.ToFormat(f, false)
		bn := linalg.VecFromFloat64(f, b2)
		iters := 0
		for i := 0; i < b.N; i++ {
			iters = solvers.CG(an, bn, 1e-5, cap).Iterations
		}
		b.ReportMetric(float64(iters), "cg-iters")
	})
}

// BenchmarkAblationGMRESIR compares plain and GMRES corrections on a
// matrix whose naive Float16 factorization is rough (§V-D2 remark).
func BenchmarkAblationGMRESIR(b *testing.B) {
	m := experiments.Suite([]string{"662_bus"})[0]
	f := arith.Float16
	b.Run("plain-ir", func(b *testing.B) {
		iters := 0
		for i := 0; i < b.N; i++ {
			iters = solvers.MixedIR(m.A, m.B, f, solvers.IRScaling{}, solvers.IROptions{}).Iterations
		}
		b.ReportMetric(float64(iters), "ir-iters")
	})
	b.Run("gmres-ir", func(b *testing.B) {
		iters := 0
		for i := 0; i < b.N; i++ {
			res, _ := solvers.MixedIRGMRES(context.Background(), m.A, m.B, f, solvers.IRScaling{}, solvers.IROptions{}, solvers.GMRESOptions{})
			iters = res.Iterations
		}
		b.ReportMetric(float64(iters), "ir-iters")
	})
}

// BenchmarkAblationLDLTShift probes the paper's explanation for
// rounding µ to a power of four — "Cholesky makes use of the
// square-root operator" — by factoring the same Higham-equilibrated
// matrix scaled by 2 (odd power) and by 4 (perfect square) with both
// Cholesky and square-root-free LDLᵀ, reporting the direct-solve
// backward error as a metric. If the explanation holds, Cholesky is
// the factorization that cares about the distinction.
func BenchmarkAblationLDLTShift(b *testing.B) {
	m := experiments.Suite([]string{"lund_b"})[0]
	r := scaling.HighamEquilibrate(m.A, 1e-8, 100)
	f := arith.Posit16e2
	for _, cfg := range []struct {
		name string
		mu   float64
	}{
		{"mu=8(pow2)", 8},
		{"mu=16(pow4)", 16},
	} {
		scaled := m.A.Clone()
		bb := append([]float64(nil), m.B...)
		scaled.ScaleSym(r)
		scaled.Scale(cfg.mu)
		// Consistent rhs: (µRAR)(R⁻¹x/µ·µ) — for the backward-error
		// metric only the scaled system itself matters.
		for i := range bb {
			bb[i] = m.B[i] * r[i] * cfg.mu
		}
		dense := scaled.ToDense()
		an := dense.ToFormat(f, true)
		bn := linalg.VecFromFloat64(f, bb)
		b.Run("cholesky/"+cfg.name, func(b *testing.B) {
			be := math.NaN()
			for i := 0; i < b.N; i++ {
				x, err := solvers.CholeskySolve(an, bn)
				if err != nil {
					b.Skip("factorization failed")
				}
				be = solvers.BackwardError(scaled, bb, linalg.VecToFloat64(f, x))
			}
			b.ReportMetric(be, "backward-err")
		})
		b.Run("ldlt/"+cfg.name, func(b *testing.B) {
			be := math.NaN()
			for i := 0; i < b.N; i++ {
				x, err := solvers.LDLTDirectSolve(an, bn)
				if err != nil {
					b.Skip("factorization failed")
				}
				be = solvers.BackwardError(scaled, bb, linalg.VecToFloat64(f, x))
			}
			b.ReportMetric(be, "backward-err")
		})
	}
}

// BenchmarkExtFFT regenerates the §VII FFT future-work experiment.
func BenchmarkExtFFT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtFFT()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkExtShock regenerates the §VII Sod shock-tube experiment.
func BenchmarkExtShock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtShock()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkExtBiCG regenerates the §VI BiCG iterate-growth comparison.
func BenchmarkExtBiCG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.ExtBiCG(benchOpt())
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkMatrixGeneration measures the calibrated suite generator.
func BenchmarkMatrixGeneration(b *testing.B) {
	tgt, _ := matgen.TargetByName("bcsstk01")
	for i := 0; i < b.N; i++ {
		m := matgen.Generate(tgt)
		if m.A.N != 48 {
			b.Fatal("bad matrix")
		}
	}
}
