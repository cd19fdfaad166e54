package arith

import "math"

// Slice-level kernels.
//
// The solvers' wall time is dominated by per-scalar interface dispatch:
// every Add/Mul in a CG matvec or a Cholesky trailing update is a
// dynamic call on a Format. BulkFormat is the batched alternative — a
// format may implement whole-slice operations whose inner loops run
// with zero interface dispatch, while remaining bit-identical to the
// equivalent sequence of scalar Format calls. Every kernel is defined
// *as* a scalar-op sequence (documented per method); implementations
// may reorganize the work (value-domain loops, register-level
// rounding) but never the roundings themselves, which the differential
// tests in kernels_test.go assert format by format.
//
// The fast value-domain formats (one set of loops for all of them) and
// the native float64/float32 implement BulkFormat below, and the
// Observe wrapper forwards to them.
// Callers obtain kernels through BulkOf, which falls back to a generic
// scalar implementation so every Format — including the slow
// integer-pipeline references — works unchanged.

// BulkFormat is the optional slice-kernel interface of a Format.
// Semantics, in terms of the format's scalar operations (all loops
// left-to-right over increasing i; no reordering, no fused
// accumulation):
//
//	DotKernel:            s = Zero; s = Add(s, Mul(x[i], y[i])); return s
//	AxpyKernel:           y[i] = Add(y[i], Mul(alpha, x[i]))
//	ScaleKernel:          x[i] = Mul(alpha, x[i])
//	MulAddKernel:         dst[i] = MulAdd(alpha, x[i], y[i])
//	MatVecKernel:         y[i] = Σ-loop of Add(·, Mul(val[idx], x[col[idx]]))
//	TrailingUpdateKernel: w[i] = MulAdd(nalpha, x[i], w[i])
//	DivKernel:            x[i] = Div(x[i], alpha)
//
// MulAddKernel may be called with dst aliasing x or y elementwise
// (dst[i] is written only after x[i] and y[i] are read).
// TrailingUpdateKernel takes the *negated* scale so the Cholesky
// update w ← w − α·x is expressible through MulAdd; by the sign
// symmetry of rounding, Add(Mul(Neg(α), x), w) is bit-identical to
// Sub(w, Mul(α, x)) in every supported format. With a ±0 scale the
// defining sequence leaves every finite w[i] unchanged for finite x[i],
// except IEEE's −0 + +0 = +0. The kernels round such a call like any
// other; the Cholesky solver skips those rows before they reach a
// kernel and tells the observers of their operations through
// ObserveExact.
type BulkFormat interface {
	DotKernel(x, y []Num) Num
	AxpyKernel(alpha Num, x, y []Num)
	ScaleKernel(alpha Num, x []Num)
	MulAddKernel(alpha Num, x, y, dst []Num)
	// MatVecKernel computes the CSR product rows of y: for each local
	// row i (rowPtr has len(y)+1 entries), y[i] accumulates
	// val[idx]·x[col[idx]] for idx in [rowPtr[i], rowPtr[i+1]).
	// rowPtr may be a window into a larger matrix: col and val are
	// indexed absolutely, so sharded callers pass rowPtr[lo:hi+1] and
	// y[lo:hi].
	MatVecKernel(rowPtr, col []int, val []Num, x, y []Num)
	TrailingUpdateKernel(nalpha Num, x, w []Num)
	// DivKernel divides the slice elementwise by alpha — the Cholesky
	// row division by the pivot.
	DivKernel(alpha Num, x []Num)
}

// BulkOf returns f's slice kernels: f itself when it implements
// BulkFormat, otherwise a generic fallback over f's scalar operations.
// Hoist the result out of loops — the fallback wrapper is a fresh
// interface value per call.
func BulkOf(f Format) BulkFormat {
	if b, ok := f.(BulkFormat); ok {
		return b
	}
	return scalarKernels{f}
}

// scalarKernels implements every kernel as the defining scalar-op
// sequence, so any Format participates in the kernel layer unchanged.
// The mul-add pairs dispatch through Format.MulAdd — one dynamic call
// per element instead of two.
type scalarKernels struct{ f Format }

func (s scalarKernels) DotKernel(x, y []Num) Num {
	f := s.f
	acc := f.Zero()
	for i := range x {
		acc = f.MulAdd(x[i], y[i], acc)
	}
	return acc
}

func (s scalarKernels) AxpyKernel(alpha Num, x, y []Num) {
	f := s.f
	for i := range x {
		y[i] = f.MulAdd(alpha, x[i], y[i])
	}
}

func (s scalarKernels) ScaleKernel(alpha Num, x []Num) {
	f := s.f
	for i := range x {
		x[i] = f.Mul(alpha, x[i])
	}
}

func (s scalarKernels) MulAddKernel(alpha Num, x, y, dst []Num) {
	f := s.f
	for i := range x {
		dst[i] = f.MulAdd(alpha, x[i], y[i])
	}
}

func (s scalarKernels) MatVecKernel(rowPtr, col []int, val []Num, x, y []Num) {
	f := s.f
	for i := 0; i+1 < len(rowPtr); i++ {
		sum := f.Zero()
		for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
			sum = f.MulAdd(val[idx], x[col[idx]], sum)
		}
		y[i] = sum
	}
}

func (s scalarKernels) TrailingUpdateKernel(nalpha Num, x, w []Num) {
	f := s.f
	for i := range x {
		w[i] = f.MulAdd(nalpha, x[i], w[i])
	}
}

func (s scalarKernels) DivKernel(alpha Num, x []Num) {
	f := s.f
	for i := range x {
		x[i] = f.Div(x[i], alpha)
	}
}

// --- fast-format kernels ---
//
// The loops compute in float64 and round every result in four steps:
//
//  1. the inline step, inlineTable.round;
//  2. a zero result takes a cheap branch, since zero products dominate
//     the trailing updates of sparse factors: a posit drops −0 and an
//     IEEE format keeps it;
//  3. a sum exactly on a boundary whose TwoSum residual is zero is a
//     genuine tie and goes to the even pattern;
//  4. anything else takes the format's off path (exact.go), as the
//     scalar operation does.
//
// Steps 1 and 3 are the scalar operations' own, and step 2 gives what
// the off path gives for a zero, so a kernel rounds as its defining
// sequence of scalar operations — kernels_test.go, table_test.go,
// tie_test.go and wide_test.go pin them together differentially.

func (f *fastFormat) DotKernel(x, y []Num) Num {
	it, ieee := f.table(), f.ieee
	y = y[:len(x)]
	s := 0.0
	for i := range x {
		xi, yi := f64(x[i]), f64(y[i])
		m := xi * yi
		if r, _, ok := it.round(math.Float64bits(m)); ok {
			m = math.Float64frombits(r)
		} else if m == 0 {
			if !ieee {
				m = 0 // posits have one zero
			}
		} else {
			m = f.offMul(xi, yi, m)
		}
		sum := s + m
		if r, par, ok := it.round(math.Float64bits(sum)); ok {
			s = math.Float64frombits(r)
		} else if sum == 0 {
			if !ieee {
				sum = 0
			}
			s = sum
		} else if par != 0 && sumExact(s, m, sum) {
			s = math.Float64frombits(r + r&par)
		} else {
			s = f.offSum(s, m, sum)
		}
	}
	return n64(s)
}

// AxpyKernel is MulAddKernel with dst = y: the sum m + y[i] rounds the
// same as y[i] + m.
func (f *fastFormat) AxpyKernel(alpha Num, x, y []Num) { f.MulAddKernel(alpha, x, y, y) }

func (f *fastFormat) ScaleKernel(alpha Num, x []Num) {
	it, ieee := f.table(), f.ieee
	a := f64(alpha)
	for i := range x {
		xi := f64(x[i])
		m := a * xi
		if r, _, ok := it.round(math.Float64bits(m)); ok {
			x[i] = Num(r)
		} else if m == 0 {
			if !ieee {
				m = 0
			}
			x[i] = n64(m)
		} else {
			x[i] = n64(f.offMul(a, xi, m))
		}
	}
}

func (f *fastFormat) MulAddKernel(alpha Num, x, y, dst []Num) {
	it, ieee := f.table(), f.ieee
	a := f64(alpha)
	y = y[:len(x)]
	dst = dst[:len(x)]
	for i := range x {
		xi := f64(x[i])
		m := a * xi
		if r, _, ok := it.round(math.Float64bits(m)); ok {
			m = math.Float64frombits(r)
		} else if m == 0 {
			if !ieee {
				m = 0
			}
		} else {
			m = f.offMul(a, xi, m)
		}
		yi := f64(y[i])
		sum := m + yi
		if r, par, ok := it.round(math.Float64bits(sum)); ok {
			dst[i] = Num(r)
		} else if sum == 0 {
			if !ieee {
				sum = 0
			}
			dst[i] = n64(sum)
		} else if par != 0 && sumExact(m, yi, sum) {
			dst[i] = Num(r + r&par)
		} else {
			dst[i] = n64(f.offSum(m, yi, sum))
		}
	}
}

func (f *fastFormat) MatVecKernel(rowPtr, col []int, val []Num, x, y []Num) {
	it, ieee := f.table(), f.ieee
	for i := 0; i+1 < len(rowPtr); i++ {
		s := 0.0
		for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
			vi, xi := f64(val[idx]), f64(x[col[idx]])
			m := vi * xi
			if r, _, ok := it.round(math.Float64bits(m)); ok {
				m = math.Float64frombits(r)
			} else if m == 0 {
				if !ieee {
					m = 0
				}
			} else {
				m = f.offMul(vi, xi, m)
			}
			sum := s + m
			if r, par, ok := it.round(math.Float64bits(sum)); ok {
				s = math.Float64frombits(r)
			} else if sum == 0 {
				if !ieee {
					sum = 0
				}
				s = sum
			} else if par != 0 && sumExact(s, m, sum) {
				s = math.Float64frombits(r + r&par)
			} else {
				s = f.offSum(s, m, sum)
			}
		}
		y[i] = n64(s)
	}
}

func (f *fastFormat) TrailingUpdateKernel(nalpha Num, x, w []Num) {
	f.MulAddKernel(nalpha, x, w, w)
}

func (f *fastFormat) DivKernel(alpha Num, x []Num) {
	it, ieee := f.table(), f.ieee
	a := f64(alpha)
	for i := range x {
		xi := f64(x[i])
		q := xi / a
		if r, _, ok := it.round(math.Float64bits(q)); ok {
			x[i] = Num(r)
		} else if q == 0 {
			if !ieee {
				q = 0
			}
			x[i] = n64(q)
		} else {
			x[i] = n64(f.offQuo(xi, a, q))
		}
	}
}

// --- native kernels (hardware formats) ---
//
// float64 and float32 round natively, so their kernels are plain
// loops. Explicit conversions pin every intermediate to one rounding
// (the Go spec otherwise permits fusing x*y+z into an FMA).

func (f float64Format) DotKernel(x, y []Num) Num {
	s := 0.0
	for i := range x {
		s += float64(f64(x[i]) * f64(y[i]))
	}
	return n64(s)
}

func (f float64Format) AxpyKernel(alpha Num, x, y []Num) {
	a := f64(alpha)
	for i := range x {
		y[i] = n64(f64(y[i]) + float64(a*f64(x[i])))
	}
}

func (f float64Format) ScaleKernel(alpha Num, x []Num) {
	a := f64(alpha)
	for i := range x {
		x[i] = n64(a * f64(x[i]))
	}
}

func (f float64Format) MulAddKernel(alpha Num, x, y, dst []Num) {
	a := f64(alpha)
	for i := range x {
		dst[i] = n64(float64(a*f64(x[i])) + f64(y[i]))
	}
}

func (f float64Format) MatVecKernel(rowPtr, col []int, val []Num, x, y []Num) {
	for i := 0; i+1 < len(rowPtr); i++ {
		s := 0.0
		for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
			s += float64(f64(val[idx]) * f64(x[col[idx]]))
		}
		y[i] = n64(s)
	}
}

func (f float64Format) TrailingUpdateKernel(nalpha Num, x, w []Num) {
	a := f64(nalpha)
	for i := range x {
		w[i] = n64(float64(a*f64(x[i])) + f64(w[i]))
	}
}

func (f float64Format) DivKernel(alpha Num, x []Num) {
	a := f64(alpha)
	for i := range x {
		x[i] = n64(f64(x[i]) / a)
	}
}

func (f float32Format) DotKernel(x, y []Num) Num {
	s := float32(0)
	for i := range x {
		s += float32(f32(x[i]) * f32(y[i]))
	}
	return n32(s)
}

func (f float32Format) AxpyKernel(alpha Num, x, y []Num) {
	a := f32(alpha)
	for i := range x {
		y[i] = n32(f32(y[i]) + float32(a*f32(x[i])))
	}
}

func (f float32Format) ScaleKernel(alpha Num, x []Num) {
	a := f32(alpha)
	for i := range x {
		x[i] = n32(a * f32(x[i]))
	}
}

func (f float32Format) MulAddKernel(alpha Num, x, y, dst []Num) {
	a := f32(alpha)
	for i := range x {
		dst[i] = n32(float32(a*f32(x[i])) + f32(y[i]))
	}
}

func (f float32Format) MatVecKernel(rowPtr, col []int, val []Num, x, y []Num) {
	for i := 0; i+1 < len(rowPtr); i++ {
		s := float32(0)
		for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
			s += float32(f32(val[idx]) * f32(x[col[idx]]))
		}
		y[i] = n32(s)
	}
}

func (f float32Format) TrailingUpdateKernel(nalpha Num, x, w []Num) {
	a := f32(nalpha)
	for i := range x {
		w[i] = n32(float32(a*f32(x[i])) + f32(w[i]))
	}
}

func (f float32Format) DivKernel(alpha Num, x []Num) {
	a := f32(alpha)
	for i := range x {
		x[i] = n32(f32(x[i]) / a)
	}
}
