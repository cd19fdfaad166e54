package shadow

import "positlab/internal/arith"

// shadowed wraps a Format with shadow measurement. Results — scalar
// and kernel — always come from the underlying format, so a shadowed
// solve is bit-identical to an unshadowed one; measurement happens on
// the side, on the sampled subset of operations.
//
// Slice kernels dispatch to the underlying format's BulkFormat fast
// path unconditionally. For the elementwise kernels (axpy, scale,
// muladd, trailing update, div) the kernel's own outputs are the
// measured results: the wrapper captures the overwritten operand
// values at the sampled indices beforehand, so nothing is recomputed.
// The reduction kernels (dot, matvec) carry a running accumulator, so
// a sampled call replays the defining scalar MulAdd chain — which is
// bit-identical to the kernel by the BulkFormat contract — to recover
// the intermediate accumulator values it measures against.
//
// A trailing update with a zero scale (a Cholesky row whose multiplier
// is zero) is recorded without the reference: every sampled operation
// is exact, or bad when an operand is not finite, so it is counted in
// bulk. The telemetry is identical to measuring it op by op.
type shadowed struct {
	arith.Format
	bk  arith.BulkFormat
	rec *Recorder
}

// Wrap pairs f with a reference engine and returns the shadow-wrapped
// format together with the Recorder accumulating its telemetry. The
// wrapped format implements arith.BulkFormat, is safe for concurrent
// use wherever f is (measurement is internally synchronized), and is
// bit-transparent: every operation returns exactly f's result.
//
// Compose instrumentation outside the wrapper
// (arith.InstrumentAtomic(shadow.Wrap(f, cfg))): the wrapper's replay
// of sampled reduction chains re-runs scalar operations on the format
// it wraps, which would inflate an inner instrumented count.
func Wrap(f arith.Format, cfg Config) (arith.Format, *Recorder) {
	rec := newRecorder(f, cfg)
	return shadowed{Format: f, bk: arith.BulkOf(f), rec: rec}, rec
}

// --- scalar operations ---

func (s shadowed) Add(a, b arith.Num) arith.Num {
	r := s.Format.Add(a, b)
	s.rec.noteScalar(OpAdd, a, b, 0, r)
	return r
}

func (s shadowed) Sub(a, b arith.Num) arith.Num {
	r := s.Format.Sub(a, b)
	s.rec.noteScalar(OpSub, a, b, 0, r)
	return r
}

func (s shadowed) Mul(a, b arith.Num) arith.Num {
	r := s.Format.Mul(a, b)
	s.rec.noteScalar(OpMul, a, b, 0, r)
	return r
}

func (s shadowed) Div(a, b arith.Num) arith.Num {
	r := s.Format.Div(a, b)
	s.rec.noteScalar(OpDiv, a, b, 0, r)
	return r
}

func (s shadowed) Sqrt(a arith.Num) arith.Num {
	r := s.Format.Sqrt(a)
	s.rec.noteScalar(OpSqrt, a, 0, 0, r)
	return r
}

func (s shadowed) MulAdd(a, b, c arith.Num) arith.Num {
	r := s.Format.MulAdd(a, b, c)
	s.rec.noteScalar(OpMulAdd, a, b, c, r)
	return r
}

// --- reduction kernels ---

func (s shadowed) DotKernel(x, y []arith.Num) arith.Num {
	res := s.bk.DotKernel(x, y)
	if start, any := s.rec.window(uint64(len(x))); any {
		s.replayChain("dot", start, x, y)
	}
	return res
}

// replayChain re-runs the dot accumulator chain
// acc = MulAdd(x[i], y[i], acc) with the underlying format's scalar
// operations and measures the fused operations at the sampled indices.
func (s shadowed) replayChain(site string, start uint64, x, y []arith.Num) {
	f, rec := s.Format, s.rec
	rp := rec.beginReplay(site)
	next := rec.firstSample(start)
	acc := f.Zero()
	for i := range x {
		prev := acc
		acc = f.MulAdd(x[i], y[i], prev)
		if uint64(i) == next {
			rp.note(OpMulAdd, x[i], y[i], prev, acc)
			next += rec.stride
		}
	}
	rp.end()
}

func (s shadowed) MatVecKernel(rowPtr, col []int, val []arith.Num, x, y []arith.Num) {
	s.bk.MatVecKernel(rowPtr, col, val, x, y)
	if len(rowPtr) < 2 {
		return
	}
	base := rowPtr[0]
	nnz := uint64(rowPtr[len(rowPtr)-1] - base)
	start, any := s.rec.window(nnz)
	if !any {
		return
	}
	f, rec := s.Format, s.rec
	rp := rec.beginReplay("matvec")
	next := rec.firstSample(start)
	for i := 0; i+1 < len(rowPtr) && next < nnz; i++ {
		// Rows are independent accumulator chains: only rows that
		// contain a sampled operation are replayed.
		if next >= uint64(rowPtr[i+1]-base) {
			continue
		}
		acc := f.Zero()
		for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
			prev := acc
			acc = f.MulAdd(val[idx], x[col[idx]], prev)
			if uint64(idx-base) == next {
				rp.note(OpMulAdd, val[idx], x[col[idx]], prev, acc)
				next += rec.stride
			}
		}
	}
	rp.end()
}

// --- elementwise kernels ---

// capture copies v's values at indices first, first+stride, ... before
// the kernel overwrites them.
func capture(v []arith.Num, first, stride uint64) []arith.Num {
	n := uint64(len(v))
	if first >= n {
		return nil
	}
	out := make([]arith.Num, 0, (n-first+stride-1)/stride)
	for i := first; i < n; i += stride {
		out = append(out, v[i])
	}
	return out
}

func (s shadowed) AxpyKernel(alpha arith.Num, x, y []arith.Num) {
	start, any := s.rec.window(uint64(len(x)))
	if !any {
		s.bk.AxpyKernel(alpha, x, y)
		return
	}
	rec := s.rec
	first := rec.firstSample(start)
	pre := capture(y, first, rec.stride)
	s.bk.AxpyKernel(alpha, x, y)
	rp := rec.beginReplay("axpy")
	for j, i := 0, first; i < uint64(len(y)); j, i = j+1, i+rec.stride {
		rp.note(OpMulAdd, alpha, x[i], pre[j], y[i])
	}
	rp.end()
}

func (s shadowed) MulAddKernel(alpha arith.Num, x, y, dst []arith.Num) {
	start, any := s.rec.window(uint64(len(x)))
	if !any {
		s.bk.MulAddKernel(alpha, x, y, dst)
		return
	}
	rec := s.rec
	first := rec.firstSample(start)
	// dst may alias x or y elementwise: capture both operands first.
	preX := capture(x, first, rec.stride)
	preY := capture(y, first, rec.stride)
	s.bk.MulAddKernel(alpha, x, y, dst)
	rp := rec.beginReplay("muladd")
	for j, i := 0, first; i < uint64(len(dst)); j, i = j+1, i+rec.stride {
		rp.note(OpMulAdd, alpha, preX[j], preY[j], dst[i])
	}
	rp.end()
}

func (s shadowed) ScaleKernel(alpha arith.Num, x []arith.Num) {
	start, any := s.rec.window(uint64(len(x)))
	if !any {
		s.bk.ScaleKernel(alpha, x)
		return
	}
	rec := s.rec
	first := rec.firstSample(start)
	pre := capture(x, first, rec.stride)
	s.bk.ScaleKernel(alpha, x)
	rp := rec.beginReplay("scale")
	for j, i := 0, first; i < uint64(len(x)); j, i = j+1, i+rec.stride {
		rp.note(OpMul, alpha, pre[j], 0, x[i])
	}
	rp.end()
}

// TrailingUpdateKernel measures a zero-scale call in bulk (see
// trailingZero) and any other call op by op.
func (s shadowed) TrailingUpdateKernel(nalpha arith.Num, x, w []arith.Num) {
	if s.Format.IsZero(nalpha) {
		s.trailingZero(nalpha, x, w)
		return
	}
	s.trailingPerOp(nalpha, x, w)
}

// trailingZero runs a zero-scale trailing update and records its
// sampled operations without evaluating the reference. Each one is
// fl(fl(±0·x[i]) + w[i]), whose exact value is w[i]. With x[i] and w[i]
// finite the format returns exactly that; otherwise the result is
// NaR/NaN or ±Inf and measureNums counts the operation bad. So the
// result alone decides it. Cholesky's zero-multiplier rows, the bulk
// of a banded factorization, then cost no reference arithmetic.
func (s shadowed) trailingZero(nalpha arith.Num, x, w []arith.Num) {
	start, any := s.rec.window(uint64(len(x)))
	s.bk.TrailingUpdateKernel(nalpha, x, w)
	if !any {
		return
	}
	f, rec := s.Format, s.rec
	var n, bad uint64
	for i := rec.firstSample(start); i < uint64(len(w)); i += rec.stride {
		n++
		if !finite(f.ToFloat64(w[i])) {
			bad++
		}
	}
	rec.noteExact("trailing", OpMulAdd, n, bad)
}

// trailingPerOp measures each sampled element of a trailing update
// against the reference.
func (s shadowed) trailingPerOp(nalpha arith.Num, x, w []arith.Num) {
	start, any := s.rec.window(uint64(len(x)))
	if !any {
		s.bk.TrailingUpdateKernel(nalpha, x, w)
		return
	}
	rec := s.rec
	first := rec.firstSample(start)
	pre := capture(w, first, rec.stride)
	s.bk.TrailingUpdateKernel(nalpha, x, w)
	rp := rec.beginReplay("trailing")
	for j, i := 0, first; i < uint64(len(w)); j, i = j+1, i+rec.stride {
		rp.note(OpMulAdd, nalpha, x[i], pre[j], w[i])
	}
	rp.end()
}

func (s shadowed) DivKernel(alpha arith.Num, x []arith.Num) {
	start, any := s.rec.window(uint64(len(x)))
	if !any {
		s.bk.DivKernel(alpha, x)
		return
	}
	rec := s.rec
	first := rec.firstSample(start)
	pre := capture(x, first, rec.stride)
	s.bk.DivKernel(alpha, x)
	rp := rec.beginReplay("div")
	for j, i := 0, first; i < uint64(len(x)); j, i = j+1, i+rec.stride {
		rp.note(OpDiv, pre[j], alpha, 0, x[i])
	}
	rp.end()
}
