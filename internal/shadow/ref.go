package shadow

// Reference engines. A measured operation re-evaluates the same
// operand values in a higher precision and compares the format's
// result against it. Operand values are handed over as float64, which
// is exact: every supported format's finite values (posits up to 32
// bits, minifloats, float32) embed exactly in binary64.
//
// Formats of 16 bits or fewer use the float64 engine: their products
// are exact in binary64 and every other reference operation is
// correctly rounded at 2^-53, four-plus orders of magnitude below the
// smallest format ulp being measured. Wider formats (posit32*,
// float32, float64 itself) use the 256-bit engine, whose reference
// stays far beyond the measured precision. It answers add, sub, mul
// and mul-add exactly in float64 when it can prove the result equals
// the 256-bit one (fastMeasure, fastref.go) and computes in 256-bit
// big.Float otherwise (bigMeasure).

import (
	"math"
	"math/big"

	"positlab/internal/arith"
)

// measurement is one measured operation: exact operand/result images,
// the reference result (rounded to float64 for display), and the
// relative and ulp errors of the format result against the reference.
type measurement struct {
	a, b, c  float64
	got, ref float64
	rel, ulp float64
	bad      bool
}

type refEngine interface {
	name() string
	// measure returns the reference result of op applied to the exact
	// operand values and the relative error of got against it; ok is
	// false when the reference is undefined (division by zero, square
	// root of a negative), which callers count as a bad operation.
	measure(op arith.Op, a, b, c, got float64) (ref, rel float64, ok bool)
}

// engineFor selects the reference engine by format width.
func engineFor(f arith.Format) refEngine {
	if widthOf(f) <= 16 {
		return f64Engine{}
	}
	return bigEngine{}
}

// widthOf returns the format's encoding width in bits (64 for unknown
// formats, which conservatively selects the 256-bit engine).
func widthOf(f arith.Format) int {
	if c, ok := arith.PositConfig(f); ok {
		return c.N()
	}
	if m, ok := arith.MiniConfig(f); ok {
		return m.Width()
	}
	switch f.Name() {
	case "Float32":
		return 32
	case "Float64":
		return 64
	}
	return 64
}

// --- float64 engine ---

type f64Engine struct{}

func (f64Engine) name() string { return "float64" }

func (f64Engine) measure(op arith.Op, a, b, c, got float64) (float64, float64, bool) {
	var ref float64
	switch op {
	case arith.OpAdd:
		ref = a + b
	case arith.OpSub:
		ref = a - b
	case arith.OpMul:
		ref = a * b
	case arith.OpDiv:
		if b == 0 {
			return 0, 0, false
		}
		ref = a / b
	case arith.OpSqrt:
		if a < 0 {
			return 0, 0, false
		}
		ref = math.Sqrt(a)
	case arith.OpMulAdd:
		ref = math.FMA(a, b, c)
	default:
		return 0, 0, false
	}
	return ref, relErr(got, ref), true
}

// relErr is |got − ref| / |ref|, with 0/0 = 0 and x/0 = +Inf (which
// the histograms clamp into the top bucket).
func relErr(got, ref float64) float64 {
	if got == ref {
		return 0
	}
	d := math.Abs(got - ref)
	if ref == 0 {
		return math.Inf(1)
	}
	return d / math.Abs(ref)
}

// --- 256-bit engine: fastMeasure, then big.Float ---

type bigEngine struct{}

// bigPrec is the reference precision for wide formats: 256 bits keeps
// even a chain of posit32 values (≤ 28 significand bits each) exact
// through a fused multiply-add and leaves ~200 guard bits for division
// and square root.
const bigPrec = 256

func (bigEngine) name() string { return "bigfp256" }

func bf(x float64) *big.Float {
	return new(big.Float).SetPrec(bigPrec).SetFloat64(x)
}

func (bigEngine) measure(op arith.Op, a, b, c, got float64) (float64, float64, bool) {
	if ref, rel, ok := fastMeasure(op, a, b, c, got); ok {
		return ref, rel, true
	}
	return bigMeasure(op, a, b, c, got)
}

// bigMeasure is the engine's 256-bit big.Float computation: the
// fallback of fastMeasure and the oracle its tests compare against.
func bigMeasure(op arith.Op, a, b, c, got float64) (float64, float64, bool) {
	z := new(big.Float).SetPrec(bigPrec)
	switch op {
	case arith.OpAdd:
		z.Add(bf(a), bf(b))
	case arith.OpSub:
		z.Sub(bf(a), bf(b))
	case arith.OpMul:
		z.Mul(bf(a), bf(b))
	case arith.OpDiv:
		if b == 0 {
			return 0, 0, false
		}
		z.Quo(bf(a), bf(b))
	case arith.OpSqrt:
		if a < 0 {
			return 0, 0, false
		}
		z.Sqrt(bf(a))
	case arith.OpMulAdd:
		z.Mul(bf(a), bf(b))
		z.Add(z, bf(c))
	default:
		return 0, 0, false
	}
	ref, _ := z.Float64()
	if got == ref {
		// Bit-equal after rounding the reference to float64: for a
		// float64-format operand set this means an exact match; the
		// sub-2^-53 discrepancy for wider-than-reference cases is far
		// below every bucket floor.
		if z.Cmp(bf(got)) == 0 {
			return ref, 0, true
		}
	}
	d := new(big.Float).SetPrec(bigPrec).Sub(bf(got), z)
	d.Abs(d)
	if z.Sign() == 0 {
		return ref, math.Inf(1), true
	}
	az := new(big.Float).SetPrec(bigPrec).Abs(z)
	rel, _ := d.Quo(d, az).Float64()
	return ref, rel, true
}

// --- local grid spacing (ulp) ---

// ulpFnFor builds a closure returning the format's local grid spacing
// (the gap between adjacent representable magnitudes) at a given
// positive magnitude, computed analytically from the format's
// scale/fraction geometry — no encode round trip, so it is cheap
// enough to run per measured operation. The closure captures plain
// integers only.
//
// For tapered formats the spacing is taken at the magnitude's own
// binade (floor(log2 v)); a reference value that rounds across a
// regime or binade boundary can land one bucket off, which is within
// the histograms' log2 resolution. In tapered tails where a posit has
// zero fraction bits the spacing is floored at one scale step, which
// understates the true inter-regime gap — ulp errors there read large,
// deliberately flagging the precision cliff.
func ulpFnFor(f arith.Format) func(v float64) float64 {
	if c, ok := arith.PositConfig(f); ok {
		minS, maxS := c.MinScale(), c.MaxScale()
		fbAt := c.FracBitsAtScale
		return func(v float64) float64 {
			s := math.Ilogb(v)
			if s < minS || s > maxS {
				return 0
			}
			return math.Ldexp(1, s-fbAt(s))
		}
	}
	if m, ok := arith.MiniConfig(f); ok {
		emin, emax, frac := m.Emin(), m.Emax(), m.FracBits()
		return ieeeUlpFn(emin, emax, frac)
	}
	switch f.Name() {
	case "Float32":
		return ieeeUlpFn(-126, 127, 23)
	case "Float64":
		return ieeeUlpFn(-1022, 1023, 52)
	}
	return func(float64) float64 { return 0 }
}

func ieeeUlpFn(emin, emax, frac int) func(v float64) float64 {
	return func(v float64) float64 {
		e := math.Ilogb(v)
		if e > emax {
			return 0
		}
		if e < emin {
			e = emin // subnormal range: fixed spacing 2^(emin-frac)
		}
		return math.Ldexp(1, e-frac)
	}
}
