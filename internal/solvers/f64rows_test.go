package solvers_test

import (
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/matgen"
	"positlab/internal/scaling"
	"positlab/internal/solvers"
)

// colFactorError is FactorizationError's column form: each entry of
// RᵀR is its own dot product over a pair of strided columns of R. It is
// the oracle of the row-ordered factorErrorF64.
func colFactorError(a, rf *linalg.Dense) float64 {
	n := a.N
	var num, den float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// (RᵀR)[i][j] = Σ_k R[k][i]·R[k][j], k ≤ min(i,j).
			m := i
			if j < m {
				m = j
			}
			s := 0.0
			for k := 0; k <= m; k++ {
				s += rf.At(k, i) * rf.At(k, j)
			}
			d := s - a.At(i, j)
			num += d * d
			den += a.At(i, j) * a.At(i, j)
		}
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// colSolveCholF64 is linalg.SolveCholF64 with the forward sweep in its
// column form, each entry's sum running down a strided column of R. It
// is the oracle of the row-ordered sweep.
func colSolveCholF64(r *linalg.Dense, b []float64) []float64 {
	n := r.N
	y := append([]float64(nil), b...)
	for i := 0; i < n; i++ {
		s := y[i]
		for j := 0; j < i; j++ {
			s -= r.At(j, i) * y[j]
		}
		y[i] = s / r.At(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * y[j]
		}
		y[i] = s / r.At(i, i)
	}
	return y
}

// TestRowOrderedF64Kernels asserts the row-ordered factorization error
// and triangular solve are bit-identical to their column forms on the
// Higham-scaled 16-bit factors of a Table III matrix, on a diagonal
// matrix (whose factor's zero entries the row-ordered error skips), and
// on n = 1.
func TestRowOrderedF64Kernels(t *testing.T) {
	type system struct {
		name string
		ah   *linalg.Dense // the matrix the factor approximates
		r    *linalg.DenseNum
		b    []float64
	}
	var systems []system

	tgt, err := matgen.TargetByName("bcsstk01")
	if err != nil {
		t.Fatal(err)
	}
	m := matgen.Generate(tgt)
	rs := scaling.HighamEquilibrate(m.A, 1e-8, 100)
	for _, f := range []arith.Format{arith.Float16, arith.Posit16e1, arith.Posit16e2} {
		ah := solvers.ScaledDense(m.A, rs, scaling.MuFor(f))
		r, err := solvers.Cholesky(ah.ToFormat(f, true))
		if err != nil {
			t.Fatalf("%s: Higham-scaled bcsstk01 factor: %v", f.Name(), err)
		}
		systems = append(systems, system{"bcsstk01/" + f.Name(), ah, r, m.B})
	}

	diag, err := matgen.Diagonal(40, 1e6, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	dd := diag.ToDense()
	rd, err := solvers.Cholesky(dd.ToFormat(arith.Posit16e1, true))
	if err != nil {
		t.Fatal(err)
	}
	bd := make([]float64, dd.N)
	for i := range bd {
		bd[i] = float64(i%5) - 2 // zeros and both signs
	}
	systems = append(systems, system{"diagonal", dd, rd, bd})

	one := linalg.NewDense(1)
	one.A[0] = 3
	r1, err := solvers.Cholesky(one.ToFormat(arith.Float16, true))
	if err != nil {
		t.Fatal(err)
	}
	systems = append(systems, system{"n=1", one, r1, []float64{-5}})

	for _, s := range systems {
		rf := s.r.ToFloat64()
		got, want := solvers.FactorErrorF64(s.ah, rf), colFactorError(s.ah, rf)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: factor error %g (bits %x), column form %g (bits %x)",
				s.name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if pub := solvers.FactorizationError(s.ah, s.r); math.Float64bits(pub) != math.Float64bits(want) {
			t.Errorf("%s: FactorizationError %g, column form %g", s.name, pub, want)
		}

		x := append([]float64(nil), s.b...)
		linalg.SolveCholF64(rf, x)
		wx := colSolveCholF64(rf, s.b)
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(wx[i]) {
				t.Fatalf("%s: solve x[%d] = %g (bits %x), column form %g (bits %x)",
					s.name, i, x[i], math.Float64bits(x[i]), wx[i], math.Float64bits(wx[i]))
			}
		}
	}
}
