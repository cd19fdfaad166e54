package solvers_test

import (
	"math"
	"math/rand"
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
// and the indexed triangular solve are bit-identical to their column
// forms on the Higham-scaled 16-bit factors of a Table III matrix, on
// the unscaled Table II factors of 685_bus in Posit(16,1) and 494_bus
// in Float16 (0.6–3% nonzero, so the solve skips most of R), on a
// factor with −0 entries and zero gaps both shorter and longer than
// the solve's merge width, on a diagonal matrix (whose factor's zero
// entries the row-ordered error skips), and on n = 1. Each solve runs
// on the system's right-hand side and on variants holding ±0, ±Inf,
// NaN and an entry whose forward quotient underflows to −0.
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

	for _, c := range []struct {
		matrix string
		f      arith.Format
	}{{"685_bus", arith.Posit16e1}, {"494_bus", arith.Float16}} {
		tgt, err := matgen.TargetByName(c.matrix)
		if err != nil {
			t.Fatal(err)
		}
		m := matgen.Generate(tgt)
		ah := solvers.ScaledDense(m.A, nil, 1)
		r, err := solvers.Cholesky(ah.ToFormat(c.f, true))
		if err != nil {
			t.Fatalf("%s/%s: Table II factor: %v", c.matrix, c.f.Name(), err)
		}
		systems = append(systems, system{c.matrix + "/" + c.f.Name(), ah, r, m.B})
	}

	// An upper factor whose row j holds nonzeros at j+1, j+3 (a gap of
	// 1), j+13 (a gap of 9), j+14 and j+25 (a gap of 10), and zeros
	// elsewhere, −0 where i+j is even; its diagonal is 4, 5 or 6, so the
	// forward quotient of −2^-1074 underflows to −0.
	const nz = 30
	sz := linalg.NewDense(nz)
	for j := 0; j < nz; j++ {
		sz.Set(j, j, float64(4+j%3))
		for i := j + 1; i < nz; i++ {
			switch d := i - j; {
			case d == 1 || d == 3 || d == 13 || d == 14 || d == 25:
				sz.Set(j, i, float64(1-2*(i%2))*(0.25+0.125*float64((7*i+j)%5)))
			case (i+j)%2 == 0:
				sz.Set(j, i, math.Copysign(0, -1))
			}
		}
	}
	szA := linalg.NewDense(nz) // RᵀR
	for i := 0; i < nz; i++ {
		for j := 0; j < nz; j++ {
			for k := 0; k < nz; k++ {
				szA.A[i*nz+j] += sz.At(k, i) * sz.At(k, j)
			}
		}
	}
	bz := make([]float64, nz)
	for i := range bz {
		bz[i] = float64(i%7) - 3
	}
	systems = append(systems, system{"signed zeros", szA, sz.ToFormat(arith.Float64, false), bz})

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

	negZero, inf, tiny := math.Copysign(0, -1), math.Inf(1), math.SmallestNonzeroFloat64
	if q := -tiny / 4; q != 0 || !math.Signbit(q) {
		t.Fatalf("−2^-1074/4 = %g, want −0", q)
	}
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

		n := len(s.b)
		type rhs struct {
			name string
			v    []float64
		}
		rhss := []rhs{{"b", s.b}}
		vary := func(name string, set func(i int, v float64) float64) {
			v := make([]float64, n)
			for i, bi := range s.b {
				v[i] = set(i, bi)
			}
			rhss = append(rhss, rhs{name, v})
		}
		vary("signed zeros", func(i int, v float64) float64 {
			switch i % 4 {
			case 1:
				return negZero
			case 3:
				return 0
			}
			return v
		})
		vary("specials", func(i int, v float64) float64 {
			return []float64{0, negZero, inf, -inf, math.NaN(), v, -tiny}[i%7]
		})
		vary("last +Inf", func(i int, v float64) float64 {
			if i == n-1 {
				return inf
			}
			return v
		})
		vary("middle NaN", func(i int, v float64) float64 {
			if i == n/2 {
				return math.NaN()
			}
			return v
		})
		vary("first −0", func(i int, v float64) float64 {
			if i == 0 {
				return negZero
			}
			return v
		})
		vary("underflow", func(i int, v float64) float64 {
			if i == 0 {
				return -tiny
			}
			return v
		})
		cf := linalg.NewCholF64(rf)
		for _, b := range rhss {
			x := append([]float64(nil), b.v...)
			cf.Solve(x)
			wx := colSolveCholF64(rf, b.v)
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(wx[i]) {
					t.Fatalf("%s, rhs %s: solve x[%d] = %g (bits %x), column form %g (bits %x)",
						s.name, b.name, i, x[i], math.Float64bits(x[i]), wx[i], math.Float64bits(wx[i]))
				}
			}
		}
	}
}

// FuzzSolveCholF64 holds the indexed float64 Cholesky solve to its
// column form, bit for bit, on random upper factors of order 1 to 40.
// Each off-diagonal entry is a zero of either sign with probability
// zeros/255, so rows hold zero gaps of every length; the other entries,
// the diagonal and the right-hand side are normals of both signs or,
// with probability specials/255, one of ±0, a subnormal, ±1e300, ±Inf
// and NaN. Each factor solves twice, to check that a CholF64 is
// reusable after a solve that fell back. The seed corpus in
// testdata/fuzz runs in every go test.
func FuzzSolveCholF64(f *testing.F) {
	f.Fuzz(func(t *testing.T, order uint8, seed int64, zeros, specials uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(order)%40
		pz, ps := float64(zeros)/255, float64(specials)/255
		sign := func() float64 { return float64(1 - 2*rng.Intn(2)) }
		draw := func() float64 {
			if rng.Float64() >= ps {
				return sign() * (1 + rng.Float64()) * math.Ldexp(1, rng.Intn(61)-30)
			}
			switch rng.Intn(7) {
			case 0:
				return math.Copysign(0, sign())
			case 1:
				return sign() * math.Float64frombits(1+uint64(rng.Int63n(1<<52-1)))
			case 2:
				return sign() * 1e300
			case 3:
				return math.Inf(1)
			case 4:
				return math.Inf(-1)
			case 5:
				return math.NaN()
			}
			return sign() * math.SmallestNonzeroFloat64
		}
		r := linalg.NewDense(n)
		for j := 0; j < n; j++ {
			r.Set(j, j, draw())
			for i := j + 1; i < n; i++ {
				if rng.Float64() < pz {
					r.Set(j, i, math.Copysign(0, sign()))
				} else {
					r.Set(j, i, draw())
				}
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = draw()
		}
		want := colSolveCholF64(r, b)
		cf := linalg.NewCholF64(r)
		for pass := 0; pass < 2; pass++ {
			x := append([]float64(nil), b...)
			cf.Solve(x)
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d pass %d: x[%d] = %g (bits %x), column form %g (bits %x)",
						n, pass, i, x[i], math.Float64bits(x[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	})
}
