package shadow

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"

	"positlab/internal/arith"
)

// wideFormats are the formats the 256-bit engine measures, with the
// operand exponent range each sweep draws from: the format's own range
// plus a margin, so saturation, underflow and the fast path's 2^±400
// edges are all reached.
var wideFormats = []struct {
	name   string
	lo, hi int
}{
	{"posit32es2", -130, 130},
	{"posit32es3", -250, 250},
	{"posit32es4", -490, 490},
	{"posit24es1", -54, 54},
	{"float32", -160, 138},
	{"float64", -460, 460},
}

var fastOps = []arith.Op{arith.OpAdd, arith.OpSub, arith.OpMul, arith.OpMulAdd}

// checkFast compares the fast path with the big.Float path on one
// operation: the fast path must decline or return the same ref and rel
// bits. It reports whether the fast path answered.
func checkFast(t testing.TB, op arith.Op, a, b, c, got float64) bool {
	t.Helper()
	ref, rel, ok := fastMeasure(op, a, b, c, got)
	if !ok {
		return false
	}
	wref, wrel, wok := bigMeasure(op, a, b, c, got)
	if !wok || math.Float64bits(ref) != math.Float64bits(wref) || math.Float64bits(rel) != math.Float64bits(wrel) {
		t.Fatalf("%s(%x, %x, %x) got %x: fast ref %x rel %x, big.Float ref %x rel %x (ok %v)",
			op, a, b, c, got, ref, rel, wref, wrel, wok)
	}
	return true
}

// formatOp rounds x, y, w into f and returns the exact operand images
// and f's own result of op; ok is false when a value is not finite,
// an operation the Recorder counts as bad without measuring it.
func formatOp(f arith.Format, op arith.Op, x, y, w float64) (a, b, c, got float64, ok bool) {
	na, nb, nc := f.FromFloat64(x), f.FromFloat64(y), f.FromFloat64(w)
	var ng arith.Num
	switch op {
	case arith.OpAdd:
		ng = f.Add(na, nb)
	case arith.OpSub:
		ng = f.Sub(na, nb)
	case arith.OpMul:
		ng = f.Mul(na, nb)
	case arith.OpDiv:
		ng = f.Div(na, nb)
	case arith.OpSqrt:
		ng = f.Sqrt(na)
	default:
		ng = f.MulAdd(na, nb, nc)
	}
	a, b, c, got = f.ToFloat64(na), f.ToFloat64(nb), f.ToFloat64(nc), f.ToFloat64(ng)
	return a, b, c, got, finite(a) && finite(b) && finite(c) && finite(got)
}

// randFloat draws a float64 with a random sign, a binade uniform in
// [lo, hi] and a random 52-bit fraction.
func randFloat(r *rand.Rand, lo, hi int) float64 {
	v := math.Ldexp(1+float64(r.Uint64()>>12)*0x1p-52, lo+r.IntN(hi-lo+1))
	if r.IntN(2) == 0 {
		v = -v
	}
	return v
}

// near returns a value close to v: v itself, v one ulp up, v moved in
// its low 20 fraction bits, or v scaled by up to 2^±4, so that sums
// cancel to varying depths.
func near(r *rand.Rand, v float64) float64 {
	switch r.IntN(4) {
	case 0:
		return v
	case 1:
		return math.Nextafter(v, math.Inf(1))
	case 2:
		return v * (1 + float64(r.IntN(1<<20))*0x1p-52)
	default:
		return math.Ldexp(v, r.IntN(9)-4)
	}
}

// sweepTriple draws one operand triple for op: independent operands
// half the time, otherwise operands that make the sum cancel or sit
// within a few binades of each other.
func sweepTriple(r *rand.Rand, op arith.Op, lo, hi int) (x, y, w float64) {
	x, y, w = randFloat(r, lo, hi), randFloat(r, lo, hi), randFloat(r, lo, hi)
	if r.IntN(2) == 0 {
		return x, y, w
	}
	switch op {
	case arith.OpAdd:
		y = -near(r, x)
	case arith.OpSub:
		y = near(r, x)
	case arith.OpMul:
		y = near(r, 1/x)
	default:
		w = -near(r, x*y)
	}
	return x, y, w
}

// sweepSize is the number of operand triples per format.
const sweepSize = 1_000_000

// TestFastReferenceSweep runs a seeded sweep of operand triples per
// wide format, each through one of add, sub, mul and mul-add computed
// by the format itself, and requires the fast path to decline or
// match the big.Float path bit for bit. It also requires the path to
// answer a good share of them, so a path that declines everything
// fails; operands drawn independently over posit32es4's or float64's
// range are often more than 64 binades apart, hence 40%, not more.
func TestFastReferenceSweep(t *testing.T) {
	n := sweepSize
	if raceEnabled {
		n /= 64 // single-goroutine arithmetic: the full sweep runs without -race
	}
	for i, wf := range wideFormats {
		t.Run(wf.name, func(t *testing.T) {
			t.Parallel()
			f := arith.MustByName(wf.name)
			r := rand.New(rand.NewPCG(20, uint64(i)))
			measured, answered := 0, 0
			for k := 0; k < n; k++ {
				op := fastOps[k%len(fastOps)]
				x, y, w := sweepTriple(r, op, wf.lo, wf.hi)
				a, b, c, got, ok := formatOp(f, op, x, y, w)
				if !ok {
					continue
				}
				measured++
				if checkFast(t, op, a, b, c, got) {
					answered++
				}
			}
			share := float64(answered) / float64(measured)
			t.Logf("%d of %d measured operations answered by the fast path (%.4f)", answered, measured, share)
			if share < 0.4 {
				t.Errorf("fast path answered %.4f of measured operations, want at least 0.4", share)
			}
		})
	}
}

// TestFastReferenceDeclines checks the operations and ranges the fast
// path must leave to big.Float.
func TestFastReferenceDeclines(t *testing.T) {
	cases := []struct {
		name         string
		op           arith.Op
		a, b, c, got float64
	}{
		{"div", arith.OpDiv, 1, 3, 0, 0.3333333},
		{"sqrt", arith.OpSqrt, 2, 0, 0, 1.4142135},
		{"add gap 65", arith.OpAdd, 1, 0x1p-65, 0, 1},
		{"add gap 65 above", arith.OpAdd, 0x1p-65, 1, 0, 1},
		{"muladd gap 65", arith.OpMulAdd, 0x1p-40, 0x1p-25, 1, 1},
		{"operand above 2^400", arith.OpMul, 0x1.0000000000001p400, 0.5, 0, 0x1p399},
		{"operand below 2^-400", arith.OpAdd, 0x1.fffffffffffffp-401, 0x1p-400, 0, 0x1p-399},
		{"product below 2^-400", arith.OpMul, 0x1p-200, 0x1.fffffffffffffp-201, 0, 0x1p-400},
		{"got above 2^400", arith.OpAdd, 1, 1, 0, 0x1p401},
		{"ref below 2^-400", arith.OpSub, 0x1.0000000000001p-390, 0x1p-390, 0, 0},
		{"rel is a midpoint", arith.OpAdd, 1, 0, 0, -0x1p-53},
	}
	for _, c := range cases {
		if _, _, ok := fastMeasure(c.op, c.a, c.b, c.c, c.got); ok {
			t.Errorf("%s: fast path answered, want the big.Float path", c.name)
		}
	}
}

// TestFastReferenceAdversarial runs the boundary cases through both
// paths: exact ties, sums that cancel to ±0, addends 64 and 65 binades
// apart on both sides, the 2^±400 edges, posit32es4 extremes, float32
// subnormals and full-width float64 operands. Each case is measured as
// given and with got taken from every wide format.
func TestFastReferenceAdversarial(t *testing.T) {
	ulp1 := 0x1p-52
	maxPos := math.Ldexp(1, 480) // posit32es4 maxpos
	cases := []struct {
		op      arith.Op
		a, b, c float64
	}{
		// Ties: z halfway between two float64s.
		{arith.OpAdd, 1, 0x1p-53, 0},
		{arith.OpAdd, 1 + ulp1, 0x1p-53, 0},
		{arith.OpSub, 1, 0x1p-54, 0},
		{arith.OpMul, 1 + ulp1, 1 + 0x1p-1, 0},
		{arith.OpMulAdd, 1 + 0x1p-27, 1 + 0x1p-27, 0},
		{arith.OpMulAdd, 1 + 0x1p-26, 1 + 0x1p-27, -1},
		// Cancellation to ±0.
		{arith.OpAdd, 1.5, -1.5, 0},
		{arith.OpAdd, math.Copysign(0, -1), math.Copysign(0, -1), 0},
		{arith.OpSub, math.Copysign(0, -1), 0, 0},
		{arith.OpSub, 0x1.8p-300, 0x1.8p-300, 0},
		{arith.OpMul, math.Copysign(0, -1), 3, 0},
		{arith.OpMulAdd, 3, 5, -15},
		{arith.OpMulAdd, math.Copysign(0, -1), 1, math.Copysign(0, -1)},
		{arith.OpMulAdd, 1 + ulp1, 1 - ulp1, -1},
		{arith.OpMulAdd, 1 + 0x1p-30, 1 + 0x1p-30, -(1 + 0x1p-29)},
		// Addends 64 and 65 binades apart, on both sides.
		{arith.OpAdd, 1, 0x1.8p-64, 0},
		{arith.OpAdd, 1, 0x1.8p-65, 0},
		{arith.OpAdd, 0x1.8p-64, -1, 0},
		{arith.OpAdd, 0x1.8p-65, -1, 0},
		{arith.OpSub, 0x1p64, 0x1.fffffffffffffp-1, 0},
		{arith.OpSub, 0x1p65, 0x1.fffffffffffffp-1, 0},
		{arith.OpMulAdd, 0x1.3p-32, 0x1.5p-32, 1},
		{arith.OpMulAdd, 0x1.3p-33, 0x1.5p-32, 1},
		{arith.OpMulAdd, 0x1p32, 0x1.5p32, 0x1.7p-0},
		{arith.OpMulAdd, 0x1p32, 0x1.5p33, 0x1.7p-0},
		// The 2^±400 edges.
		{arith.OpAdd, 0x1p400, 0x1p399, 0},
		{arith.OpAdd, 0x1p-400, 0x1p-400, 0},
		{arith.OpSub, 0x1p-400, 0x1.0000000000001p-400, 0},
		{arith.OpMul, 0x1p200, 0x1p200, 0},
		{arith.OpMul, 0x1.fffffffffffffp199, 0x1.0000000000001p200, 0},
		{arith.OpMul, 0x1p-200, 0x1p-200, 0},
		{arith.OpMul, 0x1.0000000000001p-200, 0x1.fffffffffffffp-201, 0},
		{arith.OpMulAdd, 0x1p-200, 0x1p-200, -0x1p-400},
		{arith.OpMulAdd, 0x1p200, 0x1.8p199, 0x1p399},
		// posit32es4 extremes.
		{arith.OpMul, maxPos, 1 / maxPos, 0},
		{arith.OpAdd, maxPos, 1, 0},
		{arith.OpMulAdd, 0x1p-240, 0x1p-240, 0x1p-480},
		{arith.OpMul, 0x1p-480, 0x1p100, 0},
		// float32 subnormals.
		{arith.OpAdd, 0x1p-149, 0x1p-149, 0},
		{arith.OpSub, 0x1p-126, 0x1p-149, 0},
		{arith.OpMul, 0x1.8p-140, 0x1p-10, 0},
		{arith.OpMulAdd, 0x1p-75, 0x1p-75, 0x1p-149},
		// Full-width float64 operands.
		{arith.OpAdd, math.Pi, math.E * 0x1p-40, 0},
		{arith.OpMul, math.Pi, math.E, 0},
		{arith.OpMul, 0x1.fffffffffffffp0, 0x1.fffffffffffffp0, 0},
		{arith.OpMulAdd, math.Pi, math.E, -math.Pi * math.E},
		{arith.OpMulAdd, 0x1.fffffffffffffp0, 0x1.fffffffffffffp0, -4},
		{arith.OpMulAdd, 1.0 / 3, 3, -1},
	}
	var fs []arith.Format
	for _, wf := range wideFormats {
		fs = append(fs, arith.MustByName(wf.name))
	}
	for _, c := range cases {
		// got: the reference itself, one float64 ulp off on each side,
		// 0, 1, and each format's own result.
		z, _, _ := bigMeasure(c.op, c.a, c.b, c.c, 0)
		for _, got := range []float64{z, math.Nextafter(z, math.Inf(1)), math.Nextafter(z, math.Inf(-1)), 0, 1} {
			if finite(got) {
				checkFast(t, c.op, c.a, c.b, c.c, got)
			}
		}
		for _, f := range fs {
			if a, b, cc, got, ok := formatOp(f, c.op, c.a, c.b, c.c); ok {
				checkFast(t, c.op, a, b, cc, got)
			}
		}
	}
}

// TestErrFMAExact checks errFMA's contract directly against big.Float:
// a·b + c = r + e1 + e2 exactly, with e2 at most half an ulp of e1
// and e1 + e2 at most half an ulp of r, on products that c cancels to
// varying depths.
func TestErrFMAExact(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	n := 200_000
	if raceEnabled {
		n /= 64
	}
	for k := 0; k < n; k++ {
		a, b := randFloat(r, -60, 60), randFloat(r, -60, 60)
		c := randFloat(r, -120, 120)
		if k%2 == 0 {
			c = -near(r, float64(a*b))
		}
		p := float64(a * b)
		if !nearBinades(p, c) {
			continue
		}
		rr := math.FMA(a, b, c)
		e1, e2 := errFMA(a, b, c, p, rr)
		z := new(big.Float).SetPrec(bigPrec).Mul(bf(a), bf(b))
		z.Add(z, bf(c))
		s := new(big.Float).SetPrec(bigPrec).Add(bf(rr), bf(e1))
		s.Add(s, bf(e2))
		if z.Cmp(s) != 0 || math.Abs(e2) > halfUlp(e1) || math.Abs(e1+e2) > halfUlp(rr) {
			t.Fatalf("errFMA(%x, %x, %x) = r %x, e1 %x, e2 %x", a, b, c, rr, e1, e2)
		}
	}
}

// halfUlp is half the spacing of float64s above |x|.
func halfUlp(x float64) float64 {
	x = math.Abs(x)
	return (math.Nextafter(x, math.Inf(1)) - x) / 2
}

// FuzzWideReference rounds three float64s into a wide format, computes
// an operation with the format's own scalar op, and requires the fast
// path to decline or match the big.Float path's ref and rel bits.
func FuzzWideReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, format, op uint8, x, y, w float64) {
		wf := arith.MustByName(wideFormats[int(format)%len(wideFormats)].name)
		o := arith.Op(int(op) % measuredOps)
		a, b, c, got, ok := formatOp(wf, o, x, y, w)
		if !ok || !finiteOps(o, a, b, c) {
			return
		}
		checkFast(t, o, a, b, c, got)
	})
}
