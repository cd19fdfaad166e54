package arith_test

import (
	"encoding/binary"
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

// kernelFormats is the differential universe: every registered format
// (all fast value-domain implementations plus the native IEEE ones)
// and the slow integer-pipeline references, which exercise the generic
// scalar fallback of the kernel layer.
func kernelFormats(t *testing.T) map[string]arith.Format {
	fs := map[string]arith.Format{}
	for _, name := range arith.Names() {
		fs[name] = arith.MustByName(name)
	}
	fs["posit16e2-slow"] = arith.Posit(posit.Posit16e2)
	fs["posit32e2-slow"] = arith.Posit(posit.Posit32e2)
	fs["float16-slow"] = arith.Mini(minifloat.Float16, "Float16")
	fs["bfloat16-slow"] = arith.Mini(minifloat.BFloat16, "BFloat16")
	if len(fs) < 20 {
		t.Fatalf("expected the full registry, got %d formats", len(fs))
	}
	return fs
}

// kernelOperands builds a randomized operand slice in f that
// deliberately includes the exceptional patterns — zeros, NaR/NaN,
// ±Inf (via overflow in IEEE formats), max/min magnitudes — amid a
// log-uniform spread.
func kernelOperands(f arith.Format, n int, seed uint64) []arith.Num {
	x := seed
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	out := make([]arith.Num, n)
	for i := range out {
		r := next()
		switch r % 16 {
		case 0:
			out[i] = f.Zero()
		case 1:
			out[i] = f.FromFloat64(math.NaN()) // NaR / NaN
		case 2:
			out[i] = f.FromFloat64(math.Inf(1)) // +Inf or posit clamp
		case 3:
			out[i] = f.FromFloat64(-f.MaxValue())
		case 4:
			out[i] = f.FromFloat64(f.MaxValue() / 2)
		case 5:
			out[i] = f.One()
		default:
			e := int(r%200) - 100
			m := 1 + float64(r>>40)/float64(1<<24)
			v := math.Ldexp(m, e)
			if r&(1<<20) != 0 {
				v = -v
			}
			out[i] = f.FromFloat64(v)
		}
	}
	return out
}

// eqNum compares two results of the same format: exceptional values
// (NaR, NaN, ±Inf with matching sign) are compared by class — NaN
// payloads may legitimately differ between operand orders — everything
// else must match bit for bit.
func eqNum(f arith.Format, a, b arith.Num) bool {
	va, vb := f.ToFloat64(a), f.ToFloat64(b)
	if math.IsNaN(va) || math.IsNaN(vb) {
		return math.IsNaN(va) && math.IsNaN(vb)
	}
	return math.Float64bits(va) == math.Float64bits(vb)
}

func cloneNums(x []arith.Num) []arith.Num { return append([]arith.Num(nil), x...) }

// TestKernelsMatchScalarLoops asserts every kernel is bit-identical to
// the defining sequence of scalar Format operations — the pre-kernel
// inner loops of linalg and the solvers — on randomized slices laced
// with NaR/Inf/zero patterns, for every registered format and the slow
// reference implementations. The scale runs over ±0 (zero products,
// signed zeros), 1 and 2^-3 (exact products, so the sums meet operand
// ties unchanged) and 1/3 (rounded products).
func TestKernelsMatchScalarLoops(t *testing.T) {
	n := 257 // odd, not a chunk multiple
	if testing.Short() {
		n = 65
	}
	for name, f := range kernelFormats(t) {
		t.Run(name, func(t *testing.T) {
			bk := arith.BulkOf(f)
			x := kernelOperands(f, n, 0x9E3779B97F4A7C15)
			y := kernelOperands(f, n, 0xD1B54A32D192ED03)
			for _, a := range []float64{1.0 / 3.0, 0, math.Copysign(0, -1), 1, 0.125} {
				checkScaledKernels(t, f, f.FromFloat64(a), x, y)
			}

			// Dot: s = Add(s, Mul(x[i], y[i])), left to right.
			want := f.Zero()
			for i := range x {
				want = f.Add(want, f.Mul(x[i], y[i]))
			}
			if got := bk.DotKernel(x, y); !eqNum(f, got, want) {
				t.Errorf("DotKernel = %g, scalar loop = %g", f.ToFloat64(got), f.ToFloat64(want))
			}

			// MatVec on a synthetic CSR band: y[i] via the scalar
			// accumulation, including empty rows.
			rowPtr, col, val := bandCSR(f, n)
			wv := make([]arith.Num, n)
			for i := 0; i < n; i++ {
				sum := f.Zero()
				for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
					sum = f.Add(sum, f.Mul(val[idx], x[col[idx]]))
				}
				wv[i] = sum
			}
			gv := make([]arith.Num, n)
			bk.MatVecKernel(rowPtr, col, val, x, gv)
			for i := range wv {
				if !eqNum(f, gv[i], wv[i]) {
					t.Fatalf("MatVecKernel[%d] = %g, scalar = %g", i, f.ToFloat64(gv[i]), f.ToFloat64(wv[i]))
				}
			}
			// Sharded window: rows [lo, hi) through the same kernel
			// must equal the full pass (the parallel matvec contract).
			lo, hi := n/3, 2*n/3
			shard := make([]arith.Num, hi-lo)
			bk.MatVecKernel(rowPtr[lo:hi+1], col, val, x, shard)
			for i := range shard {
				if !eqNum(f, shard[i], wv[lo+i]) {
					t.Fatalf("windowed MatVecKernel[%d] = %g, scalar = %g", lo+i, f.ToFloat64(shard[i]), f.ToFloat64(wv[lo+i]))
				}
			}
		})
	}
}

// checkScaledKernels runs every kernel that takes a scale alpha on x
// and y against its defining scalar loop.
func checkScaledKernels(t *testing.T, f arith.Format, alpha arith.Num, x, y []arith.Num) {
	t.Helper()
	n := len(x)
	bk := arith.BulkOf(f)
	av := f.ToFloat64(alpha)

	// Axpy: y[i] = Add(y[i], Mul(alpha, x[i])).
	wy := cloneNums(y)
	for i := range x {
		wy[i] = f.Add(wy[i], f.Mul(alpha, x[i]))
	}
	gy := cloneNums(y)
	bk.AxpyKernel(alpha, x, gy)
	for i := range wy {
		if !eqNum(f, gy[i], wy[i]) {
			t.Fatalf("alpha=%g: AxpyKernel[%d] = %g, scalar = %g", av, i, f.ToFloat64(gy[i]), f.ToFloat64(wy[i]))
		}
	}

	// Scale: x[i] = Mul(alpha, x[i]).
	wx := cloneNums(x)
	for i := range wx {
		wx[i] = f.Mul(alpha, wx[i])
	}
	gx := cloneNums(x)
	bk.ScaleKernel(alpha, gx)
	for i := range wx {
		if !eqNum(f, gx[i], wx[i]) {
			t.Fatalf("alpha=%g: ScaleKernel[%d] = %g, scalar = %g", av, i, f.ToFloat64(gx[i]), f.ToFloat64(wx[i]))
		}
	}

	// MulAdd: dst[i] = Add(Mul(alpha, x[i]), y[i]), and the CG
	// form Add(y[i], Mul(alpha, x[i])) must agree with it (the
	// rewired p-update relies on that commutativity).
	wd := make([]arith.Num, n)
	for i := range x {
		wd[i] = f.Add(f.Mul(alpha, x[i]), y[i])
		cg := f.Add(y[i], f.Mul(alpha, x[i]))
		if !eqNum(f, wd[i], cg) {
			t.Fatalf("alpha=%g: Add not commutative at %d: %g vs %g", av, i, f.ToFloat64(wd[i]), f.ToFloat64(cg))
		}
	}
	gd := make([]arith.Num, n)
	bk.MulAddKernel(alpha, x, y, gd)
	for i := range wd {
		if !eqNum(f, gd[i], wd[i]) {
			t.Fatalf("alpha=%g: MulAddKernel[%d] = %g, scalar = %g", av, i, f.ToFloat64(gd[i]), f.ToFloat64(wd[i]))
		}
	}
	// Aliased dst (dst = x), as the CG direction update calls it.
	ga := cloneNums(x)
	bk.MulAddKernel(alpha, ga, y, ga)
	for i := range wd {
		if !eqNum(f, ga[i], wd[i]) {
			t.Fatalf("alpha=%g: aliased MulAddKernel[%d] = %g, scalar = %g", av, i, f.ToFloat64(ga[i]), f.ToFloat64(wd[i]))
		}
	}

	// TrailingUpdate with the negated scale must reproduce the
	// Cholesky form Sub(w[i], Mul(alpha, x[i])) bit for bit.
	ww := cloneNums(y)
	for i := range x {
		ww[i] = f.Sub(ww[i], f.Mul(alpha, x[i]))
	}
	gw := cloneNums(y)
	bk.TrailingUpdateKernel(f.Neg(alpha), x, gw)
	for i := range ww {
		if !eqNum(f, gw[i], ww[i]) {
			t.Fatalf("alpha=%g: TrailingUpdateKernel[%d] = %g, scalar Sub = %g", av, i, f.ToFloat64(gw[i]), f.ToFloat64(ww[i]))
		}
	}
}

// minPos returns f's smallest positive value: One halved until the next
// halving rounds to zero (IEEE) or stays put (posits never underflow).
func minPos(f arith.Format) arith.Num {
	half := f.FromFloat64(0.5)
	v := f.One()
	for {
		h := f.Mul(v, half)
		if f.IsZero(h) || h == v {
			return v
		}
		v = h
	}
}

// TestTrailingUpdateZeroScaleGrid pins the zero-scale case of
// TrailingUpdateKernel, the case the Cholesky solver's row skip stands
// in for, on a fixed operand grid: with nalpha = ±0, x and w run over
// {±0, ±minpos, ±1, ±maxpos, NaR/NaN, ±Inf} in every pairing, and every
// element must equal the scalar Sub(w, Mul(alpha, x)) with alpha =
// Neg(nalpha). The instrumented wrappers must count a zero-scale call
// exactly as a nonzero one.
func TestTrailingUpdateZeroScaleGrid(t *testing.T) {
	for name, f := range kernelFormats(t) {
		t.Run(name, func(t *testing.T) {
			mp, maxp := minPos(f), f.FromFloat64(f.MaxValue())
			grid := []arith.Num{
				f.Zero(), f.Neg(f.Zero()), mp, f.Neg(mp), f.One(), f.Neg(f.One()),
				maxp, f.Neg(maxp), f.FromFloat64(math.NaN()),
				f.FromFloat64(math.Inf(1)), f.FromFloat64(math.Inf(-1)),
			}
			var x, w []arith.Num
			for _, xv := range grid {
				for _, wv := range grid {
					x = append(x, xv)
					w = append(w, wv)
				}
			}
			bk := arith.BulkOf(f)
			for _, nalpha := range []arith.Num{f.Zero(), f.Neg(f.Zero())} {
				alpha := f.Neg(nalpha)
				got := cloneNums(w)
				bk.TrailingUpdateKernel(nalpha, x, got)
				for i := range x {
					want := f.Sub(w[i], f.Mul(alpha, x[i]))
					if !eqNum(f, got[i], want) {
						t.Errorf("nalpha=%g x=%g w=%g: TrailingUpdateKernel = %g (bits %x), scalar Sub = %g (bits %x)",
							f.ToFloat64(nalpha), f.ToFloat64(x[i]), f.ToFloat64(w[i]),
							f.ToFloat64(got[i]), uint64(got[i]), f.ToFloat64(want), uint64(want))
					}
				}

				want := arith.OpCounts{Mul: uint64(len(x)), Add: uint64(len(x))}
				for _, a := range []arith.Num{nalpha, f.One()} {
					var c arith.AtomicOpCounts
					arith.BulkOf(arith.Observe(f, &c)).TrailingUpdateKernel(a, x, cloneNums(w))
					if c.Snapshot() != want {
						t.Errorf("scale %g: counted %+v, want %+v", f.ToFloat64(a), c.Snapshot(), want)
					}
				}
			}
		})
	}
}

// bandCSR builds a small tridiagonal-ish CSR with format-rounded
// values and a few deliberately empty rows.
func bandCSR(f arith.Format, n int) (rowPtr, col []int, val []arith.Num) {
	rowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i] = len(col)
		if i%11 == 7 {
			continue // empty row
		}
		for _, j := range []int{i - 1, i, i + 1} {
			if j < 0 || j >= n {
				continue
			}
			col = append(col, j)
			val = append(val, f.FromFloat64(float64((i*7+j*3)%13)-6))
		}
	}
	rowPtr[n] = len(col)
	return rowPtr, col, val
}

// TestMulAddMatchesComposition asserts Format.MulAdd is exactly
// Add(Mul(a, b), c) for every format, across boundary-heavy operands.
func TestMulAddMatchesComposition(t *testing.T) {
	for name, f := range kernelFormats(t) {
		t.Run(name, func(t *testing.T) {
			ops := kernelOperands(f, 48, 0xA5A5A5A5DEADBEEF)
			for _, a := range ops[:16] {
				for _, b := range ops[16:32] {
					for _, c := range ops[32:] {
						want := f.Add(f.Mul(a, b), c)
						got := f.MulAdd(a, b, c)
						if !eqNum(f, got, want) {
							t.Fatalf("MulAdd(%g,%g,%g) = %g, Add(Mul) = %g",
								f.ToFloat64(a), f.ToFloat64(b), f.ToFloat64(c),
								f.ToFloat64(got), f.ToFloat64(want))
						}
					}
				}
			}
		})
	}
}

// TestInstrumentedKernelCounts asserts the batched per-kernel counts
// equal the per-op tallies of the equivalent scalar loops, under one
// counting observer and under two sharing the wrapper.
func TestInstrumentedKernelCounts(t *testing.T) {
	n := 100
	base := arith.Posit16e2
	x := kernelOperands(base, n, 1)
	y := kernelOperands(base, n, 2)
	rowPtr, col, val := bandCSR(base, n)
	nnz := uint64(len(val))
	want := arith.OpCounts{
		Mul: uint64(6*n) + nnz,
		Add: uint64(5*n) + nnz,
		Div: uint64(n),
	}

	for _, k := range []int{1, 2} {
		cs := make([]*arith.AtomicOpCounts, k)
		obs := make([]arith.Observer, k)
		for i := range cs {
			cs[i] = new(arith.AtomicOpCounts)
			obs[i] = cs[i]
		}
		bk := arith.BulkOf(arith.Observe(base, obs...))
		alpha := base.One()
		bk.DotKernel(x, y)
		bk.AxpyKernel(alpha, x, cloneNums(y))
		bk.ScaleKernel(alpha, cloneNums(x))
		bk.MulAddKernel(alpha, x, y, make([]arith.Num, n))
		bk.TrailingUpdateKernel(alpha, x, cloneNums(y))
		bk.TrailingUpdateKernel(base.Zero(), x, cloneNums(y))
		bk.MatVecKernel(rowPtr, col, val, x, make([]arith.Num, n))
		bk.DivKernel(alpha, cloneNums(x))
		for i, c := range cs {
			if got := c.Snapshot(); got != want {
				t.Errorf("%d observers, counter %d: kernel counts = %+v, want %+v", k, i, got, want)
			}
		}
	}
}

// refFormats pairs every registered fast format that has an
// integer-pipeline reference (all but the native float64 and float32)
// with that reference, in Names order.
func refFormats() (fast, ref []arith.Format) {
	for _, name := range arith.Names() {
		f := arith.MustByName(name)
		if c, ok := arith.PositConfig(f); ok {
			fast, ref = append(fast, f), append(ref, arith.Posit(c))
		} else if m, ok := arith.MiniConfig(f); ok {
			fast, ref = append(fast, f), append(ref, arith.Mini(m, f.Name()))
		}
	}
	return fast, ref
}

// FuzzKernels runs all seven kernels of a fast format on fuzzed
// operands and requires each result to equal, bit for bit, the
// defining scalar-op sequence (BulkFormat's doc) run on the format's
// integer-pipeline reference. The inputs are a format index, alpha and
// up to 32 float64 values (8 little-endian bytes each), all snapped to
// the format; the first half of the values is x, the rest y. The seed
// corpus in testdata/fuzz/FuzzKernels holds zeros, −0, NaR/Inf/NaN,
// region scales, subnormals and sums on rounding boundaries.
func FuzzKernels(f *testing.F) {
	fasts, refs := refFormats()
	f.Fuzz(func(t *testing.T, format uint8, alpha float64, data []byte) {
		i := int(format) % len(fasts)
		fast, ref := fasts[i], refs[i]
		// asFast is a reference result in the fast format's encoding,
		// the value's float64 bits, so eqNum compares it bit for bit.
		asFast := func(n arith.Num) arith.Num { return arith.Num(math.Float64bits(ref.ToFloat64(n))) }
		snap := func(v float64) (arith.Num, arith.Num) {
			a, b := fast.FromFloat64(v), ref.FromFloat64(v)
			if !eqNum(fast, a, asFast(b)) {
				t.Fatalf("%s: FromFloat64(%g) = %g, pipeline %g", fast.Name(), v, fast.ToFloat64(a), ref.ToFloat64(b))
			}
			return a, b
		}
		fa, ra := snap(alpha)
		var fv, rv []arith.Num
		for len(data) >= 8 && len(fv) < 32 {
			a, b := snap(math.Float64frombits(binary.LittleEndian.Uint64(data)))
			fv, rv = append(fv, a), append(rv, b)
			data = data[8:]
		}
		k := len(fv) / 2
		fx, fy, rx, ry := fv[:k], fv[k:2*k], rv[:k], rv[k:2*k]
		check := func(kernel string, got, want []arith.Num) {
			t.Helper()
			for j := range want {
				if !eqNum(fast, got[j], asFast(want[j])) {
					t.Fatalf("%s alpha=%g: %s[%d] = %g, pipeline %g", fast.Name(), ref.ToFloat64(ra), kernel, j,
						fast.ToFloat64(got[j]), ref.ToFloat64(want[j]))
				}
			}
		}
		bk := arith.BulkOf(fast)

		want := ref.Zero()
		for j := range rx {
			want = ref.Add(want, ref.Mul(rx[j], ry[j]))
		}
		check("DotKernel", []arith.Num{bk.DotKernel(fx, fy)}, []arith.Num{want})

		got, ws := cloneNums(fy), cloneNums(ry)
		bk.AxpyKernel(fa, fx, got)
		for j := range ws {
			ws[j] = ref.Add(ws[j], ref.Mul(ra, rx[j]))
		}
		check("AxpyKernel", got, ws)

		got, ws = cloneNums(fx), cloneNums(rx)
		bk.ScaleKernel(fa, got)
		for j := range ws {
			ws[j] = ref.Mul(ra, ws[j])
		}
		check("ScaleKernel", got, ws)

		ws = make([]arith.Num, k)
		for j := range ws {
			ws[j] = ref.Add(ref.Mul(ra, rx[j]), ry[j])
		}
		got = make([]arith.Num, k)
		bk.MulAddKernel(fa, fx, fy, got)
		check("MulAddKernel", got, ws)
		got = cloneNums(fx)
		bk.MulAddKernel(fa, got, fy, got)
		check("aliased MulAddKernel", got, ws)

		got = cloneNums(fy)
		bk.TrailingUpdateKernel(fa, fx, got)
		check("TrailingUpdateKernel", got, ws)

		got, ws = cloneNums(fx), cloneNums(rx)
		bk.DivKernel(fa, got)
		for j := range ws {
			ws[j] = ref.Div(ws[j], ra)
		}
		check("DivKernel", got, ws)

		// MatVec over the lower triangle: row r holds columns 0..r,
		// with entry values drawn from y.
		rowPtr := []int{0}
		var col []int
		var fval, rval []arith.Num
		for r := 0; r < k; r++ {
			for c := 0; c <= r; c++ {
				col = append(col, c)
				fval, rval = append(fval, fy[(r+c)%k]), append(rval, ry[(r+c)%k])
			}
			rowPtr = append(rowPtr, len(col))
		}
		got, ws = make([]arith.Num, k), make([]arith.Num, k)
		bk.MatVecKernel(rowPtr, col, fval, fx, got)
		for r := range ws {
			s := ref.Zero()
			for idx := rowPtr[r]; idx < rowPtr[r+1]; idx++ {
				s = ref.Add(s, ref.Mul(rval[idx], rx[col[idx]]))
			}
			ws[r] = s
		}
		check("MatVecKernel", got, ws)
	})
}
