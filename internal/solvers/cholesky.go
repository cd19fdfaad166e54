package solvers

import (
	"context"
	"errors"
	"math"

	"positlab/internal/arith"
	"positlab/internal/linalg"
)

func sqrt64(x float64) float64 { return math.Sqrt(x) }

// ErrNotPositiveDefinite reports a Cholesky breakdown: a pivot that is
// zero, negative, or an arithmetic exception in the working format.
// In the mixed-precision tables this is the "arithmetic error
// encountered during factorization" case rendered as '-'.
var ErrNotPositiveDefinite = errors.New("solvers: matrix not positive definite in working precision")

// Cholesky computes the upper-triangular factor R with A = RᵀR in the
// matrix's format, rounding after every operation. Only the upper
// triangle of a is read. The returned matrix has R in its upper
// triangle and zeros below.
//
// The factorization is right-looking: after row j of R is formed, the
// trailing upper triangle is updated row by row through the format's
// TrailingUpdateKernel, W[i][l] ← fl(W[i][l] − fl(R[j][i]·R[j][l])).
// Each trailing element accumulates exactly the same rounded
// subtraction chain, in the same k-order, as the classic left-looking
// dot-product form, so results are bit-identical to the scalar
// reference (asserted by the differential tests) — but the inner loops
// run over contiguous rows with batched dispatch.
//
// A row whose multiplier R[j][i] is ±0 is skipped, so the cost follows
// the factor's nonzeros. Every R[j][l] is finite by then, so each
// skipped element would compute fl(±0) + W[i][l] = W[i][l], except
// IEEE's −0 + +0 = +0. A working entry is −0 only if it starts as −0
// (a rounded sum is −0 only when both addends are), so one scan of the
// input pins the rows holding a −0, or a non-finite value, to the
// kernel. A non-finite entry ends in a breakdown either way, but a
// Sampler counts it as bad: on a sampling format a row the kernel has
// updated is rescanned for one before it is next skipped. Each run of
// skipped rows is told to f's observers through arith.ObserveExact, so
// op counts and shadow telemetry are those of the kernel calls.
func Cholesky(a *linalg.DenseNum) (*linalg.DenseNum, error) {
	return CholeskyCtx(context.Background(), a)
}

// CholeskyCtx is Cholesky with a cancellation checkpoint before each
// pivot column: when ctx expires mid-factorization the function stops
// promptly and returns the context's error (distinguishable from
// ErrNotPositiveDefinite with errors.Is). The factor is bit-identical
// to Cholesky's when the context never fires.
func CholeskyCtx(ctx context.Context, a *linalg.DenseNum) (*linalg.DenseNum, error) {
	f := a.F
	bk := arith.BulkOf(f)
	n := a.N
	r := linalg.NewDenseNum(f, n)
	zero := f.Zero()

	// Working copy: the upper triangle of a, updated in place as
	// factored rows are eliminated. Entry (j,i) holds
	// a[j][i] − Σ_{k<done} R[k][j]·R[k][i]. A pinned row reaches the
	// kernel whatever its multiplier.
	pinned := make([]bool, n)
	for i := 0; i < n; i++ {
		copy(r.Row(i)[i:], a.Row(i)[i:])
		pinned[i] = negZeroOrBad(f, r.Row(i)[i:])
	}
	// On a sampling format, dirty marks the rows the kernel has updated
	// since they were last scanned for a non-finite value.
	var dirty []bool
	if arith.Samples(f) {
		dirty = make([]bool, n)
	}

	for j := 0; j < n; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rj := r.Row(j)
		// Pivot: R[j][j] = sqrt(a[j][j] − Σ_{k<j} R[k][j]²), with the
		// sum already folded in by the trailing updates of steps k < j.
		s := rj[j]
		if f.Bad(s) || f.IsZero(s) || f.Less(s, zero) {
			return nil, ErrNotPositiveDefinite
		}
		piv := f.Sqrt(s)
		if f.Bad(piv) || f.IsZero(piv) {
			return nil, ErrNotPositiveDefinite
		}
		rj[j] = piv
		// Row j of R: R[j][i] = (a[j][i] − Σ_{k<j} R[k][j]·R[k][i]) / pivot,
		// batched through the format's DivKernel (value-domain for the
		// fast formats). A division overflowing to an
		// exceptional value is a breakdown, as in the scalar form.
		bk.DivKernel(piv, rj[j+1:])
		if linalg.HasBad(f, rj[j+1:]) {
			return nil, ErrNotPositiveDefinite
		}
		// Trailing update: W[i][i:] ← W[i][i:] − R[j][i]·R[j][i:] for
		// every i > j that reaches the kernel. The kernel call for row i
		// writes row i only, so row i's rescan sees the row as it was
		// before step j.
		var skipped uint64 // operations of the current run of skipped rows
		for i := j + 1; i < n; i++ {
			k := pinned[i] || !f.IsZero(rj[i])
			if !k && dirty != nil && dirty[i] {
				dirty[i] = false
				pinned[i] = linalg.HasBad(f, r.Row(i)[i:])
				k = pinned[i]
			}
			if !k {
				skipped += uint64(n - i)
				continue
			}
			if dirty != nil {
				dirty[i] = true
			}
			arith.ObserveExact(f, "trailing", arith.OpMulAdd, skipped)
			skipped = 0
			bk.TrailingUpdateKernel(f.Neg(rj[i]), rj[i:], r.Row(i)[i:])
		}
		arith.ObserveExact(f, "trailing", arith.OpMulAdd, skipped)
	}
	return r, nil
}

// negZeroOrBad reports whether row holds a −0 or a non-finite value.
func negZeroOrBad(f arith.Format, row []arith.Num) bool {
	for _, v := range row {
		if f.Bad(v) || f.IsZero(v) && math.Signbit(f.ToFloat64(v)) {
			return true
		}
	}
	return false
}

// SolveUpper solves R·x = y for upper-triangular R by back
// substitution in R's format.
func SolveUpper(r *linalg.DenseNum, y []arith.Num) []arith.Num {
	f := r.F
	n := r.N
	x := append([]arith.Num(nil), y...)
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s = f.Sub(s, f.Mul(r.At(i, j), x[j]))
		}
		x[i] = f.Div(s, r.At(i, i))
	}
	return x
}

// SolveLowerT solves Rᵀ·y = b (forward substitution on the transpose of
// upper-triangular R) in R's format.
func SolveLowerT(r *linalg.DenseNum, b []arith.Num) []arith.Num {
	f := r.F
	n := r.N
	y := append([]arith.Num(nil), b...)
	for i := 0; i < n; i++ {
		s := y[i]
		for j := 0; j < i; j++ {
			s = f.Sub(s, f.Mul(r.At(j, i), y[j]))
		}
		y[i] = f.Div(s, r.At(i, i))
	}
	return y
}

// CholeskySolve factors A and solves A·x = b entirely in A's format:
// one pass of Algorithm 2 (factor, forward substitution, back
// substitution) with no refinement, the configuration of the paper's
// single-precision direct-solver experiments (§IV-D).
func CholeskySolve(a *linalg.DenseNum, b []arith.Num) ([]arith.Num, error) {
	r, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	y := SolveLowerT(r, b)
	x := SolveUpper(r, y)
	if linalg.HasBad(a.F, x) {
		return nil, ErrNotPositiveDefinite
	}
	return x, nil
}

// BackwardError returns the relative backward error ‖b − A·x‖₂ / ‖b‖₂
// evaluated in float64 against the float64 master matrix (the paper's
// Cholesky metric, §IV-D).
func BackwardError(a *linalg.Sparse, b, x []float64) float64 {
	n := a.N
	ax := make([]float64, n)
	a.MatVecF64(x, ax)
	r := make([]float64, n)
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	nb := linalg.Norm2F64(b)
	if nb == 0 {
		return linalg.Norm2F64(r)
	}
	return linalg.Norm2F64(r) / nb
}

// FactorizationError returns ‖RᵀR − A‖_F / ‖A‖_F in float64, the
// factorization backward error of Fig. 10(b).
func FactorizationError(a *linalg.Dense, r *linalg.DenseNum) float64 {
	return factorErrorF64(a, r.ToFloat64())
}

// factorErrorF64 is FactorizationError on the float64 image rf of the
// factor. RᵀR accumulates row by row of R: row k adds R[k][i]·R[k][j]
// to every upper-triangle entry (i, j ≥ i) with i ≥ k, so each entry
// sums its products from zero in ascending k — the roundings, in
// order, of the per-entry column dot product — over contiguous rows.
// The lower triangle holds the same sums (the products commute). A
// zero R[k][i] is skipped: its products are zeros (R is finite), and
// adding a zero changes no sum, since a sum that starts at +0 is never
// −0.
func factorErrorF64(a, rf *linalg.Dense) float64 {
	n := a.N
	g := make([]float64, n*n)
	for k := 0; k < n; k++ {
		rk := rf.A[k*n : (k+1)*n]
		for i := k; i < n; i++ {
			rki := rk[i]
			if rki == 0 {
				continue
			}
			gi, rkj := g[i*n+i:(i+1)*n], rk[i:]
			rkj = rkj[:len(gi)]
			for j := range gi {
				gi[j] += float64(rki * rkj[j])
			}
		}
	}
	var num, den float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := g[i*n+j]
			if j < i {
				s = g[j*n+i]
			}
			d := s - a.At(i, j)
			num += float64(d * d)
			den += float64(a.At(i, j) * a.At(i, j))
		}
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// CondViaCholesky measures the spectral condition number of an SPD
// matrix: λmax by Lanczos, λmin by inverse power iteration through its
// Cholesky factor in Float64. Unlike plain Lanczos, the inverse
// iteration resolves λmin reliably even at condition numbers ~1e11,
// where the small end of the spectrum is exponentially clustered. It
// returns NaN when either estimate fails.
func CondViaCholesky(a *linalg.Sparse) float64 {
	_, lmax, err := linalg.Lanczos(a, 100)
	if err != nil || lmax <= 0 {
		return math.NaN()
	}
	r, err := Cholesky(a.ToDense().ToFormat(arith.Float64, false))
	if err != nil {
		return math.NaN()
	}
	return lmax / lambdaMin(a, r.ToFloat64())
}

// lambdaMin estimates the smallest eigenvalue of a by inverse power
// iteration through its float64 Cholesky factor rf.
func lambdaMin(a *linalg.Sparse, rf *linalg.Dense) float64 {
	n := a.N
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
		if i%2 == 1 {
			v[i] = -v[i]
		}
	}
	var mu float64
	w := make([]float64, n)
	cf := linalg.NewCholF64(rf)
	for k := 0; k < 40; k++ {
		copy(w, v)
		cf.Solve(w)
		nw := linalg.Norm2F64(w)
		if nw == 0 || math.IsNaN(nw) || math.IsInf(nw, 0) {
			return math.NaN()
		}
		mu = nw // ≈ 1/λmin once converged (‖v‖ = 1)
		for i := range w {
			v[i] = w[i] / nw
		}
	}
	// Rayleigh quotient through A for the final estimate.
	av := make([]float64, n)
	a.MatVecF64(v, av)
	lmin := linalg.DotF64(v, av)
	if lmin <= 0 {
		lmin = 1 / mu
	}
	return lmin
}
