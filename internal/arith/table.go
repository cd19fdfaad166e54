package arith

import (
	"fmt"
	"math"

	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

const signBit64 = uint64(1) << 63

// Tables is the exhaustive lookup-table engine for a format of at most
// 16 bits. Every pattern's value fits a 65536-entry float64 decode
// table, and every rounding decision the inline step leaves reduces to
// a search in a sorted boundary table indexed off the float64 bit
// pattern — the way posit hardware and SoftPosit-style libraries
// realize narrow formats. The same search probes the binades without
// fraction bits when the inline step is built, so the step's region
// and clamp entries are the cuts' own rounding. The tables are derived
// from the exact integer pipelines' decodes, so results are
// bit-identical by construction (and proven so by the exhaustive
// differential tests in table_test.go).
//
// A Tables is immutable after construction and safe for concurrent
// use. Obtain one through TablesOf, which builds lazily behind the
// process-wide registry in tablereg.go.
type Tables struct {
	spec  string
	width int
	ieee  bool

	maxPat  uint32 // largest positive finite pattern
	patMask uint16 // width-bit mask
	signPat uint16 // IEEE sign bit (== the -0 pattern); posit: NaR
	nanPat  uint16 // canonical NaN / NaR pattern
	infPat  uint16 // IEEE +Inf pattern (unused for posits)

	// decode[p] is the exact float64 value of pattern p (every value of
	// a <=16-bit format embeds exactly in float64).
	decode []float64
	// cut[p] for p in 1..maxPat is the float64 bit pattern of the
	// rounding boundary between positive patterns p-1 and p: magnitudes
	// strictly between cut[p] and cut[p+1] round to p. cut[maxPat+1] is
	// the overflow threshold (IEEE: midpoint to the next power of two,
	// beyond which results are +Inf; posit: +Inf bits, since posits
	// clamp to maxpos). cut[0] = 0 anchors the search. Positive
	// patterns are value-ordered in both systems and float64 bits are
	// value-ordered for positive floats, so the table is sorted and the
	// locate step is a binary search over the cuts of the input's
	// binade (cutByE) — no bit-pattern pipeline anywhere. The fast
	// format reaches it only through the engine (exact.go), off its
	// inline path.
	cut []uint64

	// inline is the inline rounding step (exact.go), probed from the
	// cuts.
	inline *inlineTable
	// cutByE[e] for a float64 biased exponent e (0..2048) is the
	// pattern the binade's first magnitude e<<52 lies in: the largest p
	// with cut[p] <= e<<52. Every magnitude of binade e lies in a
	// pattern between cutByE[e] and cutByE[e+1], so locate searches
	// only that range — about fb probes in a binade with fb fraction
	// bits instead of 16. Derived from cut in finalize. (uint16 holds
	// any index: a <=16-bit format has fewer than 2^15 positive
	// patterns.)
	cutByE [2049]uint16
}

// finalize derives the hot-path tables: the search bounds from the
// cuts, then the inline step from fb, the count of explicit fraction
// bits at each scale minScale+i, and the cuts' own rounding of the
// binades without them. Both builders call it last.
func (t *Tables) finalize(minScale int, fb []int8) {
	p := 0
	for e := range t.cutByE {
		first := uint64(e) << 52
		for p+1 < len(t.cut) && t.cut[p+1] <= first {
			p++
		}
		t.cutByE[e] = uint16(p)
	}
	if t.ieee {
		fb = fb[:len(fb)-1] // the top binade can round past maxFinite: roundFrom decides it
	}
	t.inline = newInlineTable(minScale, fb, func(x float64) float64 { return t.roundFrom(x, 0) })
}

// positSpec and miniSpec are the registry identities of a format
// configuration. They name the rounding semantics completely.
func positSpec(c posit.Config) string { return fmt.Sprintf("posit%de%d", c.N(), c.ES()) }

func miniSpec(f minifloat.Format) string {
	return fmt.Sprintf("mini_e%dm%d", f.ExpBits(), f.FracBits())
}

// buildPositTables derives the LUT engine for a posit format of width
// <= 16 from the integer pipeline.
func buildPositTables(c posit.Config) *Tables {
	w := c.N()
	t := &Tables{
		spec:    positSpec(c),
		width:   w,
		maxPat:  uint32(c.MaxPos()),
		patMask: uint16(1<<uint(w) - 1),
		signPat: uint16(c.NaR()),
		nanPat:  uint16(c.NaR()),
	}
	size := 1 << uint(w)
	t.decode = make([]float64, size)
	for p := 0; p < size; p++ {
		t.decode[p] = c.ToFloat64(posit.Bits(p))
	}
	// Rounding boundaries: the (w+1)-bit posit pattern 2p-1 decodes to
	// the pipeline's boundary between positive patterns p-1 and p (the
	// pattern-space midpoint; in binades with explicit fraction bits it
	// coincides with the arithmetic midpoint). Exact in float64: at
	// most w-1 significand bits, scales within ±(w-1)·2^es.
	cx := posit.MustNew(w+1, c.ES())
	t.cut = make([]uint64, t.maxPat+2)
	for p := uint32(1); p <= t.maxPat; p++ {
		t.cut[p] = math.Float64bits(cx.ToFloat64(posit.Bits(2*p - 1)))
	}
	// Posits never round a real result past maxpos (clamp, not NaR),
	// so the overflow threshold sits at infinity.
	t.cut[t.maxPat+1] = math.Float64bits(math.Inf(1))
	t.finalize(c.MinScale(), positFracBits(c))
	return t
}

// buildMiniTables derives the LUT engine for an IEEE small format of
// width <= 16 from the minifloat integer pipeline.
func buildMiniTables(f minifloat.Format) *Tables {
	w := f.Width()
	frac := f.FracBits()
	t := &Tables{
		spec:    miniSpec(f),
		width:   w,
		ieee:    true,
		maxPat:  uint32(f.MaxFinite()),
		patMask: uint16(1<<uint(w) - 1),
		signPat: uint16(f.NegZero()),
		nanPat:  uint16(f.NaN()),
		infPat:  uint16(f.PosInf()),
	}
	size := 1 << uint(w)
	t.decode = make([]float64, size)
	for p := 0; p < size; p++ {
		t.decode[p] = f.ToFloat64(minifloat.Bits(p))
	}
	// IEEE boundaries are arithmetic midpoints of adjacent values —
	// exact in float64 (one extra significand bit).
	t.cut = make([]uint64, t.maxPat+2)
	for p := uint32(1); p <= t.maxPat; p++ {
		t.cut[p] = math.Float64bits((t.decode[p-1] + t.decode[p]) / 2)
	}
	// Overflow threshold: magnitudes at or beyond the midpoint of
	// maxFinite and 2^(emax+1) round to infinity (ties land on the even
	// side, which is the Inf pattern).
	maxS := f.Emax()
	t.cut[t.maxPat+1] = math.Float64bits((t.decode[t.maxPat] + math.Ldexp(1, maxS+1)) / 2)
	minScale := f.Emin() - frac // scale of the smallest subnormal
	fb := make([]int8, maxS-minScale+1)
	for i := range fb {
		fb[i] = int8(min(i, frac)) // the i-th subnormal binade keeps i fraction bits
	}
	t.finalize(minScale, fb)
	return t
}

// search returns the largest p with cut[p] <= a, for magnitude bits a
// (sign bit clear), bisecting only between the bounds cutByE gives a's
// binade.
func (t *Tables) search(a uint64) uint32 {
	cut := t.cut
	e := a >> 52
	lo, hi := uint32(t.cutByE[e]), uint32(t.cutByE[e+1])
	for lo < hi {
		m := (lo + hi + 1) >> 1
		if cut[m] <= a {
			lo = m
		} else {
			hi = m - 1
		}
	}
	return lo
}

// locate returns the positive pattern whose rounding interval contains
// the magnitude with float64 bits a (0 < value < ∞), where the exact
// result is a + up in magnitude: only up's sign matters, and only on a
// boundary. For IEEE formats the result can be maxPat+1, meaning
// overflow to infinity; posits clamp to maxpos and never round a
// nonzero magnitude to zero.
func (t *Tables) locate(a uint64, up float64) uint32 {
	p := t.search(a)
	if p > 0 && t.cut[p] == a && (up < 0 || up == 0 && p&1 == 1) {
		p-- // below the boundary between p-1 and p, or a genuine tie to the even pattern
	}
	if !t.ieee {
		if p > t.maxPat {
			p = t.maxPat
		}
		if p == 0 {
			p = 1
		}
	}
	return p
}

// pattern applies the sign to a positive pattern: IEEE sets the sign
// bit, posits take the two's complement.
func (t *Tables) pattern(p uint32, neg bool) uint16 {
	if !neg {
		return uint16(p)
	}
	if t.ieee {
		return uint16(p) | t.signPat
	}
	return uint16(-p) & t.patMask
}

// roundPat rounds any float64 into the format's pattern space with the
// format's own special-value semantics (NaR/NaN/Inf, signed zeros,
// clamping). res is the error of r, signed like exact − r: a boundary
// hit goes to the side of res, and to the even pattern when res is 0,
// as it is for an exact r.
func (t *Tables) roundPat(r, res float64) uint16 {
	if r == 0 {
		if t.ieee && math.Signbit(r) {
			return t.signPat
		}
		return 0
	}
	if math.IsNaN(r) {
		return t.nanPat
	}
	neg := math.Signbit(r)
	if math.IsInf(r, 0) {
		if !t.ieee {
			return t.nanPat // posit: infinite intermediates are NaR
		}
		return t.pattern(uint32(t.infPat), neg)
	}
	up := res
	if neg {
		up = -res
	}
	p := t.locate(math.Float64bits(r)&^signBit64, up)
	if t.ieee && p > t.maxPat {
		p = uint32(t.infPat)
	}
	return t.pattern(p, neg)
}

// roundFrom is roundPat composed with the decode table: the rounded
// result as a float64 value, for the value-domain fast formats.
func (t *Tables) roundFrom(r, res float64) float64 {
	return t.decode[t.roundPat(r, res)]
}

// Spec returns the format identity the tables were built for.
func (t *Tables) Spec() string { return t.spec }

// Width returns the format's encoding width in bits.
func (t *Tables) Width() int { return t.width }

// MemBytes returns the resident size of the tables, for capacity
// planning and the benchmark report.
func (t *Tables) MemBytes() int {
	return len(t.decode)*8 + len(t.cut)*8 + len(t.inline)*32 + len(t.cutByE)*2
}

// Decode returns the exact float64 value of pattern p.
func (t *Tables) Decode(p uint16) float64 { return t.decode[p&t.patMask] }

// Encode rounds an arbitrary float64 into the format's canonical
// pattern. An external float64 is its own exact value, so a boundary
// hit is a genuine tie (round to even pattern) — bit-identical to the
// integer pipeline's FromFloat64.
func (t *Tables) Encode(x float64) uint16 { return t.roundPat(x, 0) }
