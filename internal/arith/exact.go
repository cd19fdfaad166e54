package arith

import "math"

// The off path: what a fast format (fast.go) does with a result that
// its inline step leaves.
//
//   - A zero is a posit's one zero; an IEEE zero rounds inline.
//   - An exact result — a value handed to FromFloat64, a sum with a
//     zero TwoSum residual, a product, quotient or root with a zero FMA
//     remainder — is rounded as a value: on a rounding boundary in a
//     binade with fraction bits it is a genuine tie, which goes to the
//     even pattern by the kept-bit parity, and the reference's
//     FromFloat64 rounds the rest (NaN, infinities, an IEEE top binade,
//     a boundary in a binade without fraction bits).
//   - An inexact result is the reference's operation on the operands
//     as the format holds them.
//
// A format of at most 16 bits seldom meets the last case: the product
// of two of its values is exact in float64 (at most 30 significand
// bits, exponents bounded), their sum usually is, and a quotient or
// root lands on a boundary only when it is exact (a boundary has at
// most 17 significand bits, and x ≠ B·y or x ≠ B² for format values
// puts x/y or √x about 2^-33 or more from B, relatively, far beyond
// float64's half ulp). A wider posit's product needs up to 56
// significand bits, so its float64 image can land on a boundary with
// the exact product beside it; the FMA remainder tells the two apart.

// exact rounds an exact x.
func (f *fastFormat) exact(x float64) float64 {
	r, par, ok := f.table().round(math.Float64bits(x))
	switch {
	case ok:
		return math.Float64frombits(r)
	case par != 0:
		return math.Float64frombits(r + r&par)
	case x == 0:
		return 0 // a posit's
	}
	return f.ref.ToFloat64(f.ref.FromFloat64(x))
}

// offMul, offSum, offQuo and offRoot round r = fl(x·y), fl(x+y),
// fl(x/y) and fl(√x), a result the inline step left. A zero returns
// before any exactness check. offQuo needs no case for y = 0: x/0 is
// ±Inf or NaN, whose remainder is NaN, and the reference divides.

func (f *fastFormat) offMul(x, y, r float64) float64 {
	if r == 0 || mulExact(x, y, r) {
		return f.exact(r)
	}
	ref := f.ref
	return ref.ToFloat64(ref.Mul(ref.FromFloat64(x), ref.FromFloat64(y)))
}

func (f *fastFormat) offSum(x, y, r float64) float64 {
	if r == 0 || sumExact(x, y, r) {
		return f.exact(r)
	}
	ref := f.ref
	return ref.ToFloat64(ref.Add(ref.FromFloat64(x), ref.FromFloat64(y)))
}

func (f *fastFormat) offQuo(x, y, r float64) float64 {
	if r == 0 || divExact(x, y, r) {
		return f.exact(r)
	}
	ref := f.ref
	return ref.ToFloat64(ref.Div(ref.FromFloat64(x), ref.FromFloat64(y)))
}

func (f *fastFormat) offRoot(x, r float64) float64 {
	if r == 0 || sqrtExact(x, r) {
		return f.exact(r)
	}
	ref := f.ref
	return ref.ToFloat64(ref.Sqrt(ref.FromFloat64(x)))
}

// --- inline rounding ---

// inlineTable is a fast format's inline rounding step, one entry per
// float64 biased exponent e. The step adds add to the value's bits and
// clears mask, the low bits that rounding a magnitude of binade e to
// the format discards; a magnitude whose masked bits equal match lies
// on a rounding boundary and leaves the step. The entries come in
// three kinds:
//
//   - a binade with fb >= 1 explicit fraction bits: mask = 2^drop−1
//     with drop = 52−fb, match = tie = 2^(drop−1), the pattern of the
//     dropped bits exactly on a boundary, add = tie−1, and par = 2·tie,
//     the kept-bit parity of the even pattern;
//   - a binade with a single answer on each side of one cut, every
//     answer a power of two (or zero or infinity): mask covers the
//     whole mantissa, and add moves the exponent field to the answer's.
//     The cut lies below the binade (a constant binade, match = 2^52,
//     which no masked value equals), at its first value (match = 0),
//     or at 1.5·2^e in a binade whose answers are 2^e and 2^(e+1)
//     (match = 2^51, add carries into the exponent above the cut).
//     These are a posit's region scales and its clamps past minpos and
//     maxpos, and an IEEE format's smallest subnormal binade, the one
//     below it and its clamps to zero and infinity. par = 0: a tie
//     there goes to the off path, since the kept-bit parity is not the
//     pattern parity;
//   - everything else is zero, so every value leaves the step: NaN and
//     infinities, a posit's zero, and an IEEE format's top binade,
//     whose carry would overflow.
//
// mask covers only mantissa bits, so the sign stays in the value's
// bits and one entry serves both signs. Scales with explicit fraction
// bits form one run, and a carry out of the run's top binade lands on a
// power of two the format represents (the IEEE top binade is left out
// for this), so an inline result is always a format value.
type inlineTable [2048]struct{ add, mask, match, par uint64 }

// newInlineTable builds the table of a format with fb[i] fraction bits
// at scale minScale+i. The binades without fraction bits are probed
// through ref, the format's reference, rounding exact float64
// magnitudes: rounding is monotone, so equal answers at two points mean the same
// answer between them, and a boundary of the format, a float64 with
// far fewer than 53 significand bits, never lies strictly between two
// adjacent float64 values. A binade whose probes fit none of the
// single-cut kinds keeps a zero entry.
func newInlineTable(minScale int, fb []int8, ref Format) *inlineTable {
	const m52 = uint64(1)<<52 - 1
	v := func(b uint64) uint64 {
		return math.Float64bits(ref.ToFloat64(ref.FromFloat64(math.Float64frombits(b))))
	}
	t := new(inlineTable)
	last := v(0) // the answer just below binade 0: zero's
	for e := range uint64(2047) {
		// below and last are the answers at the previous binade's last
		// value and at this one's.
		first, mid := e<<52, e<<52|1<<51
		below := last
		last = v(first | m52)
		en := &t[e]
		if i := int(e) - 1023 - minScale; i >= 0 && i < len(fb) && fb[i] >= 1 {
			tie := uint64(1) << (51 - int(fb[i]))
			en.add, en.mask, en.match, en.par = tie-1, 2*tie-1, tie, 2*tie
			continue
		}
		// to moves the binade's exponent field to an answer's (mod
		// 2^12, so the sign bit stays).
		to := func(a uint64) uint64 { return (a>>52 - e) << 52 }
		switch {
		case last&m52 != 0: // an answer that is no power of two
		case below == last:
			en.add, en.mask, en.match = to(last), m52, 1<<52
		case v(first+1) == last:
			en.add, en.mask, en.match = to(last), m52, 0
		case v(mid-1) == below && v(mid+1) == last && last == below+1<<52:
			en.add, en.mask, en.match = to(below)+1<<51-1, m52, 1<<51
		}
	}
	return t
}

// round rounds the float64 bits b to nearest in the format, the one
// inline rounding step of every fast format. With ok, b lies off every
// rounding boundary at an exponent that rounds inline, and r is the
// result. Otherwise par != 0 says b lies exactly on a boundary, between
// r toward zero and r + par away from zero, where the even pattern is
// r + r&par (the kept-bit parity); par == 0 sends b to the caller's
// off path.
//
// The one compare b&mask != match sorts all three cases: a no-inline
// entry compares 0 with 0. Off a boundary the halfway rule never
// applies, so adding add and truncating rounds to nearest with no
// branch on the direction; a carry out of the mantissa lands on the
// next binade's first value, since float64 bits are value-ordered.
func (t *inlineTable) round(b uint64) (r, par uint64, ok bool) {
	e := &t[b>>52&2047]
	return (b + e.add) &^ e.mask, e.par, b&e.mask != e.match
}
