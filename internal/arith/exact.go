package arith

import "math"

// The lookup-table engine: what a fast format of at most 16 bits calls
// off its inline path.
//
// For a format with at most 15 significand bits and scales well inside
// float64's range, the product of any two format values is *exact* in
// float64 (<=30 significand bits, exponents bounded), and every sum,
// quotient, or square root is correctly rounded to 53 bits — far more
// than the format keeps. Rounding those results against the format's
// Tables resolves every case without ever leaving float64:
//
//   - Products are exact, so a result on a boundary is a genuine tie —
//     rounded to the even pattern by the kept-bit parity (Tables.exact;
//     kept-bit parity equals pattern parity, since the pattern of 2^s
//     has a zero fraction field whenever there are explicit fraction
//     bits). A float64 handed to FromFloat64 is exact too and rounds
//     the same way.
//   - Sums, quotients, and roots are correctly rounded in float64, and
//     every boundary of a <=16-bit format is itself a float64 value:
//     if the rounded result is not *exactly on* a boundary, the exact
//     result is provably on the same side (|exact-r| <= ½ulp(r) while
//     |r-B| >= 1 ulp), so rounding r rounds the exact result. A sum
//     exactly on a boundary is common, since the sum of two format
//     values is usually exact and often lands on a midpoint; the fast
//     format settles it itself when its TwoSum residual is zero, a
//     genuine tie. A nonzero residual, which only an addend off the
//     format grid makes, says which side the exact sum is on
//     (Tables.sum). A quotient or a root lands on a boundary only when
//     it is exact: a boundary has at most 17 significand bits, and
//     x ≠ B·y or x ≠ B² for format values puts x/y or √x about 2^-33
//     or more from B, relatively, far beyond float64's half ulp. So
//     Tables.quo and Tables.root round r as an exact value, as mul
//     does (TestQuotientAndRootCutsExact enumerates the argument).
//
// The upshot: the engine never calls the bit-pattern pipeline. What it
// gets (zeros of a posit's scalar operations, specials, the IEEE top
// binade, boundary hits) goes through Tables.roundFrom, pure table
// lookups plus a binary search within one binade. Bit-identity with
// the scalar pipeline is asserted exhaustively in table_test.go and,
// for operands aimed at sum and quotient boundaries, in tie_test.go.
//
// Eligibility (checked by exactEligibleMini and FastPosit): width <=
// 16 and the product of any two format values representable as a
// normal float64. Every supported posit with n <= 16 qualifies
// (significand <= 14 bits, |scale| <= 224); an IEEE format qualifies
// when 2·emax+2 and 2·(emin-frac) stay inside float64's normal
// exponent range.

func (t *Tables) table() *inlineTable { return t.inline }

// exact rounds an exact x — a product, a quotient or root on a
// boundary, or a value handed to FromFloat64 — so a boundary hit is a
// genuine tie: it goes to the even pattern.
func (t *Tables) exact(x float64) float64 {
	r, par, ok := t.inline.round(math.Float64bits(x))
	if ok {
		return math.Float64frombits(r)
	}
	if par != 0 {
		return math.Float64frombits(r + r&par)
	}
	return t.roundFrom(x, 0)
}

// mul, quo and root round r as an exact value: the product of two
// format values is, and so is a quotient or root on a boundary.
func (t *Tables) mul(_, _, r float64) float64 { return t.exact(r) }

func (t *Tables) quo(_, _, r float64) float64 { return t.exact(r) }

func (t *Tables) root(_, r float64) float64 { return t.exact(r) }

// sum rounds r = fl(x+y), settling a boundary hit by the sign of the
// TwoSum residual.
func (t *Tables) sum(x, y, r float64) float64 { return t.roundFrom(r, sumErr(x, y, r)) }

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
//     there goes to the engine, since the kept-bit parity is not the
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
// through value, the format's rounding of an exact float64 magnitude:
// rounding is monotone, so equal answers at two points mean the same
// answer between them, and a boundary of the format, a float64 with
// far fewer than 53 significand bits, never lies strictly between two
// adjacent float64 values. A binade whose probes fit none of the
// single-cut kinds keeps a zero entry.
func newInlineTable(minScale int, fb []int8, value func(float64) float64) *inlineTable {
	const m52 = uint64(1)<<52 - 1
	v := func(b uint64) uint64 { return math.Float64bits(value(math.Float64frombits(b))) }
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
