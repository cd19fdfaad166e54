package shadow

// Exact float64 path of the 256-bit reference engine. For add, sub,
// mul and the kernels' mul-add, the exact result z is a short sum of
// float64s, and the engine's two answers follow from it without
// big.Float:
//
//  1. z is built exactly as ref + e1 + e2 with error-free
//     transformations: TwoSum for a sum, TwoProd through math.FMA for
//     a product, and Boldo and Muller's ErrFma for a·b + c (IEEE
//     Trans. Computers 60(2), 2011). |e2| ≤ ulp(e1)/2, and e2 is zero
//     except for mul-add.
//  2. ref is the correctly rounded float64 of z: the sum s, the
//     product p or math.FMA(a, b, c).
//  3. rel = |got − z| / |z| comes from a double-double quotient
//     q1 + q2, rounded to y = RN(q1 + q2). It is returned only when a
//     filter proves y is the correctly rounded value of the exact
//     quotient; every other case falls back to bigMeasure. This is
//     the filter-then-exact scheme of Shewchuk's adaptive predicates
//     (Shewchuk 1997), with big.Float as the exact stage.
//
// The path is taken only when the op is add, sub, mul or mul-add;
// every operand, the product, ref and got are zero or within
// [2^-400, 2^400] in magnitude, so no intermediate overflows or
// underflows and every transformation above is exact; and the two
// addends of a sum are at most 64 binades apart. Div, sqrt, wider
// gaps and values near float64's limits take the big.Float path.
//
// Why the bits cannot change:
//   - With these bounds z spans at most about 170 bits: a 106-bit
//     product and a 53-bit addend up to 64 binades below it. So the
//     256-bit engine holds z exactly, and its ref is RN53(z), as here.
//     A zero z takes the same IEEE sign in big.Float as in float64.
//   - Its rel is RN53(RN256(x)) with x = |got − z| / |z|: got − z is
//     exact at 256 bits for every result a format produces, and the
//     quotient rounds once. This equals RN53(x): if x is not itself a
//     float64 midpoint, it lies at least 2^-(54+span) away from one in
//     relative terms, span being the bits got − z and z cover, which
//     is far more than 2^-256. The filter demands more: it accepts y
//     only when x is about 2^-90·y or more clear of both rounding
//     boundaries, so it declines every midpoint, and even a got − z
//     rounded at 256 bits (relative error 2^-256) cannot move x
//     across a boundary.
//
// The quotient's own error is about 2^-100 relative. D = |got − z| is
// the accurate double-word sum (Joldes, Muller and Popescu 2017:
// relative error ≤ 3u²/(1−4u), u = 2^-53) of got − ref, exact by
// TwoSum, and −(e1 + e2); Z = |z| is |ref| + e1 to within u². q1 =
// dh/zh, its remainder dh − q1·zh is exact through one FMA, and q2 is
// the remainder's quotient: q1 + q2 is within a relative 20u² ≈
// 2^-101.7 of D/Z, so the filter's 2^-90 leaves a margin above 2^11.
//
// Every product here is an explicit float64(x*y) or a math.FMA call,
// so no architecture can fuse one into an FMA and change a rounding.

import (
	"math"

	"positlab/internal/arith"
)

// Bounds of the fast path (see the file comment).
const (
	fastMin = 0x1p-400
	fastMax = 0x1p400
	fastGap = 64 // binades between the two addends of a sum
)

// fastMeasure returns bigMeasure's ref and rel for the operation, or
// ok = false when the operation is outside the fast path or the filter
// cannot settle rel. Callers have checked the operands and got finite.
func fastMeasure(op arith.Op, a, b, c, got float64) (ref, rel float64, ok bool) {
	var e1, e2 float64 // z − ref = e1 + e2, exactly
	switch op {
	case arith.OpAdd, arith.OpSub:
		if op == arith.OpSub {
			b = -b
		}
		if !inFastRange(a) || !inFastRange(b) || !nearBinades(a, b) {
			return 0, 0, false
		}
		ref, e1 = twoSum(a, b)
	case arith.OpMul:
		if !inFastRange(a) || !inFastRange(b) {
			return 0, 0, false
		}
		ref = float64(a * b)
		e1 = math.FMA(a, b, -ref) // exact once ref passes the check below
	case arith.OpMulAdd:
		p := float64(a * b)
		if !inFastRange(a) || !inFastRange(b) || !inFastRange(c) || !inFastRange(p) || !nearBinades(p, c) {
			return 0, 0, false
		}
		ref = math.FMA(a, b, c)
		e1, e2 = errFMA(a, b, c, p, ref)
	default:
		return 0, 0, false
	}
	if !inFastRange(ref) || !inFastRange(got) {
		return 0, 0, false
	}
	if got == ref && e1 == 0 {
		return ref, 0, true // got − z = 0
	}
	if ref == 0 {
		return ref, math.Inf(1), true // z = 0, got ≠ 0
	}
	rel, ok = relQuotient(got, ref, e1, e2)
	return ref, rel, ok
}

// inFastRange reports x = 0 or 2^-400 ≤ |x| ≤ 2^400.
func inFastRange(x float64) bool {
	x = math.Abs(x)
	return x == 0 || (x >= fastMin && x <= fastMax)
}

// nearBinades reports that x and y, two addends in the fast range, are
// at most fastGap binades apart (a zero addend is near anything).
func nearBinades(x, y float64) bool {
	if x == 0 || y == 0 {
		return true
	}
	d := int(math.Float64bits(x)>>52&0x7ff) - int(math.Float64bits(y)>>52&0x7ff)
	return d >= -fastGap && d <= fastGap
}

// relQuotient returns y = RN53(|got − z| / |z|) for z = ref + e1 + e2
// (ref ≠ 0, got ≠ z), or ok = false when the filter cannot prove the
// double-double quotient rounds to y.
func relQuotient(got, ref, e1, e2 float64) (float64, bool) {
	g1, g2 := twoSum(got, -ref)
	dh, dl := addDD(g1, g2, -e1, -e2)
	if dh < 0 {
		dh, dl = -dh, -dl
	}
	zh, zl := ref, e1
	if zh < 0 {
		zh, zl = -zh, -zl
	}
	q1 := dh / zh
	r := math.FMA(-q1, zh, dh) // dh − q1·zh, exactly
	r = (r + dl) - float64(q1*zl)
	q2 := r / zh
	y, t := twoSum(q1, q2)
	// The float64 spacing on t's side of y; y is normal and far from
	// both ends of the range.
	yb := math.Float64bits(y)
	var gap float64
	if t >= 0 {
		gap = math.Float64frombits(yb+1) - y
	} else {
		gap = y - math.Float64frombits(yb-1)
	}
	if math.Abs(t)+float64(y*0x1p-90) < float64(gap*0.5) {
		return y, true
	}
	return 0, false
}

// twoSum returns s = RN(a + b) and the exact error e = a + b − s.
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	e = (a - (s - bb)) + (b - bb)
	return s, e
}

// fastTwoSum is twoSum for |a| ≥ |b| (or a = 0).
func fastTwoSum(a, b float64) (s, e float64) {
	s = a + b
	e = b - (s - a)
	return s, e
}

// addDD returns the double-word sum of (xh, xl) and (yh, yl), each
// with its low word at most half an ulp of its high word, to within
// 3u²/(1−4u) relative to the exact sum (AccurateDWPlusDW).
func addDD(xh, xl, yh, yl float64) (float64, float64) {
	sh, sl := twoSum(xh, yh)
	th, tl := twoSum(xl, yl)
	vh, vl := fastTwoSum(sh, sl+th)
	return fastTwoSum(vh, tl+vl)
}

// errFMA returns the exact error of r = RN(a·b + c) as a double word,
// a·b + c = r + e1 + e2 with |e1 + e2| ≤ ulp(r)/2 and |e2| ≤ ulp(e1)/2,
// for p = RN(a·b) (ErrFma, Boldo and Muller 2011).
func errFMA(a, b, c, p, r float64) (e1, e2 float64) {
	pl := math.FMA(a, b, -p) // a·b = p + pl
	a1, a2 := twoSum(c, pl)
	b1, b2 := twoSum(p, a1)
	return fastTwoSum((b1-r)+b2, a2)
}
