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
//     (Tables.sum). A quotient or a root on a boundary resolves by an
//     FMA remainder, r·y − x or r² − x (Tables.quo, Tables.root); all
//     three through boundaryTie in table.go.
//
// The upshot: the engine never calls the bit-pattern pipeline. What it
// gets (zeros of the scalar operations, specials, region scales, the
// IEEE top binade, boundary hits) goes through Tables.roundFrom, pure
// table lookups plus a binary search within one binade. Bit-identity
// with the scalar pipeline is asserted exhaustively in table_test.go
// and, for operands aimed at sum and quotient boundaries, in
// tie_test.go.
//
// Eligibility (checked by exactEligibleMini and FastPosit): width <=
// 16 and the product of any two format values representable as a
// normal float64. Every supported posit with n <= 16 qualifies
// (significand <= 14 bits, |scale| <= 224); an IEEE format qualifies
// when 2·emax+2 and 2·(emin-frac) stay inside float64's normal
// exponent range.

func (t *Tables) table() *inlineTable { return t.inline }

// exact rounds an exact x — a product, or a value handed to
// FromFloat64 — so a boundary hit is a genuine tie: it goes to the
// even pattern via the kept-bit parity.
func (t *Tables) exact(x float64) float64 {
	r, tie, ok := t.inline.round(math.Float64bits(x))
	if ok {
		return math.Float64frombits(r)
	}
	if tie != 0 {
		return math.Float64frombits(r + r&(tie<<1))
	}
	return t.roundFrom(x, tieExact, 0, 0)
}

// mul rounds r as an exact value: the product of two format values is.
func (t *Tables) mul(_, _, r float64) float64 { return t.exact(r) }

func (t *Tables) sum(x, y, r float64) float64 { return t.roundFrom(r, tieSum, x, y) }

func (t *Tables) quo(x, y, r float64) float64 { return t.roundFrom(r, tieDiv, x, y) }

func (t *Tables) root(x, r float64) float64 { return t.roundFrom(r, tieSqrt, x, 0) }

// --- inline rounding ---

// inlineTable is a fast format's inline rounding step, one entry per
// float64 biased exponent e: mask = 2^drop−1 covers the low mantissa
// bits that rounding a magnitude of binade e to the format discards,
// and tie = 2^(drop−1) is the pattern of those bits exactly on a
// rounding boundary. Both are zero where no inline rounding applies:
// zeros, float64 subnormals, specials, scales outside the format's
// range, region scales (no explicit fraction bits), and an IEEE
// format's top binade, whose carry would overflow. mask and tie cover
// only low mantissa bits, so the sign stays in the value's bits and
// one entry serves both signs.
//
// Scales with explicit fraction bits form one run, and a carry out of
// the run's top binade lands on a power of two the format represents
// (the IEEE top binade is left out for this), so an inline result is
// always a finite format value.
type inlineTable [2048]struct{ mask, tie uint64 }

// newInlineTable builds the table of a format with fb[i] fraction bits
// at scale minScale+i (negative counts region scales). Only the
// entries of the format's range are written.
func newInlineTable(minScale int, fb []int8) *inlineTable {
	t := new(inlineTable)
	for i, b := range fb {
		if b >= 1 {
			e := &t[minScale+i+1023]
			e.mask = uint64(1)<<(52-int(b)) - 1
			e.tie = e.mask>>1 + 1
		}
	}
	return t
}

// round rounds the float64 bits b to nearest in the format, the one
// inline rounding step of every fast format. With ok, b lies off every
// rounding boundary at an exponent that rounds inline, and r is the
// result. Otherwise tie != 0 says b lies exactly on a boundary, between
// r toward zero and r + 2·tie away from zero, where the even pattern is
// r + r&(2·tie) (the kept-bit parity); tie == 0 sends b to the
// caller's off path.
//
// The one compare b&mask != tie sorts all three cases: a no-inline
// entry compares 0 with 0. Off a boundary the halfway rule never
// applies, so adding tie−1 and truncating rounds to nearest with no
// branch on the direction; a carry out of the mantissa lands on the
// next binade's first value, since float64 bits are value-ordered.
func (t *inlineTable) round(b uint64) (r, tie uint64, ok bool) {
	e := &t[b>>52&2047]
	return (b + e.tie - 1) &^ e.mask, e.tie, b&e.mask != e.tie
}
