package solvers_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/posit"
	"positlab/internal/solvers"
)

// refCholesky is the pre-kernel left-looking factorization, verbatim:
// every element is a sequential Sub/Mul chain over At/Set scalars. The
// production right-looking kernel Cholesky must reproduce it bit for
// bit, including which breakdowns it reports.
func refCholesky(a *linalg.DenseNum) (*linalg.DenseNum, error) {
	f := a.F
	n := a.N
	r := linalg.NewDenseNum(f, n)
	zero := f.Zero()
	for j := 0; j < n; j++ {
		s := a.At(j, j)
		for k := 0; k < j; k++ {
			rkj := r.At(k, j)
			s = f.Sub(s, f.Mul(rkj, rkj))
		}
		if f.Bad(s) || f.IsZero(s) || f.Less(s, zero) {
			return nil, solvers.ErrNotPositiveDefinite
		}
		piv := f.Sqrt(s)
		if f.Bad(piv) || f.IsZero(piv) {
			return nil, solvers.ErrNotPositiveDefinite
		}
		r.Set(j, j, piv)
		for i := j + 1; i < n; i++ {
			t := a.At(j, i)
			for k := 0; k < j; k++ {
				t = f.Sub(t, f.Mul(r.At(k, j), r.At(k, i)))
			}
			q := f.Div(t, piv)
			if f.Bad(q) {
				return nil, solvers.ErrNotPositiveDefinite
			}
			r.Set(j, i, q)
		}
	}
	return r, nil
}

// spdDense builds a deterministic dense SPD matrix: diagonally
// dominant with awkward (non-dyadic) off-diagonal values so every
// format actually rounds.
func spdDense(n int) *linalg.Dense {
	d := linalg.NewDense(n)
	x := uint64(0x853C49E6748FEA9B)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x%2000)/1000 - 1 // [-1, 1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := next() / 3
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		d.Set(i, i, float64(n)) // dominance => SPD
	}
	return d
}

func choleskyFormats() []arith.Format {
	return []arith.Format{
		arith.Float64,
		arith.Float32,
		arith.Float16,
		arith.BFloat16,
		arith.Posit32e2,
		arith.Posit16e2,
		arith.Posit16e1,
		arith.Posit(posit.Posit16e2), // slow reference impl => scalar-fallback kernels
	}
}

// TestCholeskyMatchesReference differentially checks the right-looking
// kernel Cholesky against the left-looking scalar reference on an SPD
// matrix, per format, requiring identical bits in the whole factor.
func TestCholeskyMatchesReference(t *testing.T) {
	d := spdDense(40)
	for _, f := range choleskyFormats() {
		a := d.ToFormat(f, true)
		want, errW := refCholesky(a)
		got, errG := solvers.Cholesky(a)
		if errW != errG {
			t.Fatalf("%s: error mismatch: ref %v, kernel %v", f.Name(), errW, errG)
		}
		if errW != nil {
			continue
		}
		for i := range want.A {
			if got.A[i] != want.A[i] {
				t.Fatalf("%s: factor differs at flat index %d: %#x vs %#x",
					f.Name(), i, got.A[i], want.A[i])
			}
		}
	}
}

// TestCholeskyBreakdownMatchesReference checks the failure paths: an
// indefinite matrix, and a Float16 matrix whose trailing updates
// overflow to Inf mid-factorization, must fail identically in both
// implementations.
func TestCholeskyBreakdownMatchesReference(t *testing.T) {
	for _, f := range choleskyFormats() {
		// Indefinite: a negative diagonal entry past the first pivot.
		d := spdDense(8)
		d.Set(5, 5, -3)
		a := d.ToFormat(f, true)
		if _, err := refCholesky(a); err != solvers.ErrNotPositiveDefinite {
			t.Fatalf("%s: reference accepted an indefinite matrix", f.Name())
		}
		if _, err := solvers.Cholesky(a); err != solvers.ErrNotPositiveDefinite {
			t.Fatalf("%s: kernel Cholesky accepted an indefinite matrix", f.Name())
		}
	}
	// Mid-factorization overflow in a narrow IEEE format: huge
	// off-diagonal over a tiny pivot makes the divided row overflow.
	f := arith.Format(arith.Float16)
	d := linalg.NewDense(3)
	d.Set(0, 0, 1.0/1024)
	d.Set(0, 1, 60000)
	d.Set(1, 0, 60000)
	d.Set(1, 1, 2)
	d.Set(2, 2, 2)
	a := d.ToFormat(f, false)
	_, errW := refCholesky(a)
	_, errG := solvers.Cholesky(a)
	if errW != errG {
		t.Fatalf("overflow case: ref %v, kernel %v", errW, errG)
	}
	if errW == nil {
		t.Fatal("overflow case unexpectedly factored")
	}
}

// signedZeroMatrix is a seeded sparse symmetric matrix of order 8 to
// 27: diagonal in [1, 2), 15% of the off-diagonal pairs nonzero in
// (−1, 1), and 40% of the structural zeros stored as −0. Some are
// indefinite.
func signedZeroMatrix(seed uint64) *linalg.Dense {
	rng := rand.New(rand.NewPCG(seed, 0x2e80))
	n := 8 + rng.IntN(20)
	d := linalg.NewDense(n)
	for i := 0; i < n; i++ {
		d.Set(i, i, 1+rng.Float64())
		for j := i + 1; j < n; j++ {
			v := 0.0
			if rng.Float64() < 0.15 {
				v = 2*rng.Float64() - 1
			} else if rng.Float64() < 0.4 {
				v = math.Copysign(0, -1)
			}
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return d
}

// TestCholeskySignedZeroGrid checks the zero-multiplier row skip
// against the left-looking reference where it could go wrong: a
// skipped −0 entry stays −0, but −0 − (−0) is +0. On 400 seeded
// matrices per IEEE format, factor bits and breakdowns must match, and
// the grid must hold factors with −0 entries as well as breakdowns.
func TestCholeskySignedZeroGrid(t *testing.T) {
	for _, f := range []arith.Format{arith.Float16, arith.BFloat16, arith.Float32, arith.Float64} {
		var factored, negZeros, broke int
		for seed := uint64(0); seed < 400; seed++ {
			a := signedZeroMatrix(seed).ToFormat(f, true)
			want, errW := refCholesky(a)
			got, errG := solvers.Cholesky(a)
			if errW != errG {
				t.Fatalf("%s seed %d: error mismatch: ref %v, kernel %v", f.Name(), seed, errW, errG)
			}
			if errW != nil {
				broke++
				continue
			}
			factored++
			for i := range want.A {
				if got.A[i] != want.A[i] {
					t.Fatalf("%s seed %d: factor differs at flat index %d: %#x vs %#x",
						f.Name(), seed, i, got.A[i], want.A[i])
				}
				if f.IsZero(want.A[i]) && math.Signbit(f.ToFloat64(want.A[i])) {
					negZeros++
				}
			}
		}
		if factored == 0 || negZeros == 0 || broke == 0 {
			t.Fatalf("%s: %d factors holding %d −0 entries, %d breakdowns; want some of each",
				f.Name(), factored, negZeros, broke)
		}
	}
}
