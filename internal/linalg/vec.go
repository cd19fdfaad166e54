// Package linalg provides the linear-algebra substrate for the study:
// vectors and matrices over any arith.Format, float64 master
// representations of the test matrices, norms, and a Lanczos extreme
// eigenvalue estimator used to report ‖A‖₂ and condition numbers.
//
// Everything format-generic rounds after every operation (no fused
// accumulation), matching the paper's methodology.
package linalg

import (
	"fmt"

	"positlab/internal/arith"
)

// NewVec allocates a zero vector of length n in format f.
func NewVec(f arith.Format, n int) []arith.Num {
	v := make([]arith.Num, n)
	z := f.Zero()
	for i := range v {
		v[i] = z
	}
	return v
}

// VecFromFloat64 rounds a float64 vector into format f.
func VecFromFloat64(f arith.Format, xs []float64) []arith.Num {
	v := make([]arith.Num, len(xs))
	for i, x := range xs {
		v[i] = f.FromFloat64(x)
	}
	return v
}

// VecToFloat64 converts a format vector to float64 (exact for all
// supported formats).
func VecToFloat64(f arith.Format, x []arith.Num) []float64 {
	v := make([]float64, len(x))
	for i := range x {
		v[i] = f.ToFloat64(x[i])
	}
	return v
}

// CopyVec copies src into dst.
func CopyVec(dst, src []arith.Num) {
	copy(dst, src)
}

// Dot returns <x, y> accumulated in format f, rounding after every
// multiply and add (no deferred rounding). The accumulation is a
// reduction, so it always runs strictly left-to-right serial — only
// the per-element dispatch is batched through the kernel layer.
func Dot(f arith.Format, x, y []arith.Num) arith.Num {
	checkLen(len(x), len(y))
	return arith.BulkOf(f).DotKernel(x, y)
}

// Axpy computes y ← y + α·x in place.
func Axpy(f arith.Format, alpha arith.Num, x, y []arith.Num) {
	checkLen(len(x), len(y))
	arith.BulkOf(f).AxpyKernel(alpha, x, y)
}

// MulAddVec computes dst ← fl(fl(α·x)) + y elementwise — dst[i] =
// MulAdd(α, x[i], y[i]). dst may alias x or y (the CG direction update
// p ← r + β·p calls it with dst = x = p).
func MulAddVec(f arith.Format, alpha arith.Num, x, y, dst []arith.Num) {
	checkLen(len(x), len(y))
	checkLen(len(dst), len(x))
	arith.BulkOf(f).MulAddKernel(alpha, x, y, dst)
}

// Scal computes x ← α·x in place.
func Scal(f arith.Format, alpha arith.Num, x []arith.Num) {
	arith.BulkOf(f).ScaleKernel(alpha, x)
}

// SubVec computes dst ← a - b elementwise.
func SubVec(f arith.Format, dst, a, b []arith.Num) {
	checkLen(len(a), len(b))
	checkLen(len(dst), len(a))
	for i := range a {
		dst[i] = f.Sub(a[i], b[i])
	}
}

// Norm2 returns ‖x‖₂ computed in format f.
func Norm2(f arith.Format, x []arith.Num) arith.Num {
	return f.Sqrt(Dot(f, x, x))
}

// NormInf returns max|xᵢ| computed in format f.
func NormInf(f arith.Format, x []arith.Num) arith.Num {
	m := f.Zero()
	for i := range x {
		a := x[i]
		if f.Less(a, f.Zero()) {
			a = f.Neg(a)
		}
		if f.Less(m, a) {
			m = a
		}
	}
	return m
}

// HasBad reports whether any component is exceptional (NaR/NaN/Inf).
func HasBad(f arith.Format, x []arith.Num) bool {
	for i := range x {
		if f.Bad(x[i]) {
			return true
		}
	}
	return false
}

func checkLen(a, b int) {
	if a != b {
		// Mismatched vector lengths are caller programmer error, the
		// same contract as the stdlib's copy/append invariants.
		panic(fmt.Sprintf("linalg: dimension mismatch %d vs %d", a, b)) //lint:allow panics dimension invariant, caller bug by contract
	}
}

// --- float64 vector helpers (reference/working precision paths) ---

// DotF64 returns <x, y> in float64.
func DotF64(x, y []float64) float64 {
	checkLen(len(x), len(y))
	s := 0.0
	for i := range x {
		s += float64(x[i] * y[i])
	}
	return s
}

// Norm2F64 returns ‖x‖₂ in float64 with overflow-safe scaling.
func Norm2F64(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := v
		if a < 0 {
			a = -a
		}
		if scale < a {
			r := scale / a
			ssq = 1 + float64(ssq*r*r)
			scale = a
		} else {
			r := a / scale
			ssq += float64(r * r)
		}
	}
	return scale * sqrt(ssq)
}

// NormInfF64 returns max|xᵢ|.
func NormInfF64(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// AxpyF64 computes y ← y + α·x.
func AxpyF64(alpha float64, x, y []float64) {
	checkLen(len(x), len(y))
	for i := range x {
		y[i] += float64(alpha * x[i])
	}
}
