package arith

import (
	"math"

	"positlab/internal/bigfp"
	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

// Fast value-domain formats.
//
// Every format in this study embeds exactly into float64 (at most 28
// significand bits, scales within ±496), so a Num can carry the
// *value* as float64 bits instead of the format's encoding. Operations
// then run as native float64 arithmetic followed by a re-rounding into
// the format's value set — several times faster than the
// integer-pipeline formats, which matters on the O(n³) factorizations.
//
// Each format has exactly one fast implementation, chosen by its width
// in FastPosit and FastMini:
//
//   - formats of at most 16 bits (every posit8 and posit16, Float16,
//     BFloat16, FP8) run on the exhaustive lookup-table engine,
//     tableFormat (exact.go);
//   - posits wider than 16 bits run on widePosit below, which
//     re-rounds through per-scale roundTables.
//
// widePosit preserves correct rounding exactly. The hazard of computing
// through float64 is double rounding: the float64-rounded result of an
// operation may round differently than the exact result would. It can
// only do so when it lands exactly on a rounding boundary of the
// target format. Every such boundary of a posit of at most 32 bits is
// itself a float64 value, and the float64 result r is the float64
// nearest the exact result; so when r is not on a boundary B, the
// exact result is on r's side of B, and rounding r rounds the exact
// result. Only a result exactly on a boundary leaves the inline path,
// and resolves by an exact residual or the integer pipeline (see
// roundTables.round). The fast path is bit-identical to the slow path,
// which differential tests assert.

// FastPosit builds the fast implementation of a posit format. It is
// bit-compatible with Posit(c) in results; only the Num encoding
// differs (float64 value bits instead of posit patterns).
func FastPosit(c posit.Config) Format {
	if c.N() <= 16 {
		// Every posit with n <= 16 is exact-product eligible: at most
		// 14 significand bits and |scale| <= 224 (see exact.go).
		return &tableFormat{
			lt:       lazyTables{spec: positSpec(c), build: func() *Tables { return buildPositTables(c) }},
			name:     c.String(),
			id:       c,
			eps:      positEps(c),
			maxValue: c.ToFloat64(c.MaxPos()),
		}
	}
	return newWidePosit(c)
}

// FastMini builds the fast implementation of an IEEE small format,
// bit-compatible in results with the minifloat integer pipeline. A
// format the table engine cannot serve gets the reference Mini; no
// registered format is one.
func FastMini(f minifloat.Format, name string) Format {
	if !exactEligibleMini(f) {
		return Mini(f, name)
	}
	return &tableFormat{
		lt:       lazyTables{spec: miniSpec(f), build: func() *Tables { return buildMiniTables(f) }},
		name:     name,
		id:       f,
		eps:      miniEps(f),
		maxValue: f.MaxValue(),
	}
}

// exactEligibleMini reports whether an IEEE format qualifies for the
// table engine: tables must fit 2^16 entries and the product of any
// two format values must be a normal float64 (exactness of the kernel
// products; see exact.go).
func exactEligibleMini(f minifloat.Format) bool {
	frac := f.FracBits()
	return f.Width() <= 16 &&
		2*(frac+1) <= 53 &&
		2*f.Emax()+2 <= 1022 &&
		2*(f.Emin()-frac) >= -1020
}

// roundTables drives value-domain rounding for one posit format wider
// than 16 bits.
type roundTables struct {
	minScale int // scale of minpos
	maxScale int // scale of maxpos
	// inline is the inline rounding step (exact.go), with entries at the
	// scales that have explicit fraction bits, as in Tables.
	inline *inlineTable
	// Region tables, indexed by s-minScale and populated where the
	// scale has no explicit fraction bits: the bracketing representable
	// values around 2^s, the rounding midpoint between them, and the
	// parity of the lower pattern (for ties).
	down, up, mid []float64
	downOdd       []bool
	minPosV       float64 // minpos: underflow clamps here
	maxFinV       float64 // maxpos: overflow clamps here
}

// round rounds a float64 to the posit's value set with round-to-
// nearest-even in pattern space. ok=false reports x exactly on a
// rounding boundary when it is only the float64 image of the result:
// the caller must find which side the exact result is on — either by
// proving x is the exact result (re-round with exact=true; a genuine
// tie, common for sums) or through the integer pipeline. Off a
// boundary, x rounds as the exact result does (see the header above).
func (t *roundTables) round(x float64, exact bool) (v float64, ok bool) {
	b := math.Float64bits(x)
	r, tie, inline := t.inline.round(b)
	switch {
	case inline:
		return math.Float64frombits(r), true
	case tie != 0 && !exact:
		return 0, false
	case tie != 0:
		// A genuine tie goes to the even pattern: the kept-bit parity
		// is the pattern parity where there are explicit fraction bits.
		return math.Float64frombits(r + r&(tie<<1)), true
	case x == 0:
		return 0, true // posit has a single zero
	case math.IsNaN(x):
		return x, true
	case math.IsInf(x, 0):
		return math.NaN(), true // infinite intermediates are NaR
	}
	neg := b&signBit64 != 0
	// A float64 subnormal has exponent field 0: far below every
	// format's range.
	exp := int(b>>52&2047) - 1023
	if exp < t.minScale {
		// Below the smallest representable scale. The region entry at
		// minScale handles values just under minpos via its midpoint;
		// anything under half of minpos lands here. Posits never round
		// to zero.
		return signed(t.minPosV, neg), true
	}
	if exp > t.maxScale {
		return signed(t.maxFinV, neg), true // posits clamp at maxpos
	}

	// Region path: zero or negative fraction bits — the value rounds
	// between down[s] and up[s] with the format's own midpoint.
	idx := exp - t.minScale
	a := math.Abs(x)
	down, up, mid := t.down[idx], t.up[idx], t.mid[idx]
	if !exact && a == mid {
		return 0, false
	}
	switch {
	case a < mid:
		v = down
	case a > mid:
		v = up
	default: // exact tie: even pattern
		if t.downOdd[idx] {
			v = up
		} else {
			v = down
		}
	}
	if v > t.maxFinV {
		v = t.maxFinV
	}
	if v == 0 {
		v = t.minPosV
	}
	return signed(v, neg), true
}

func signed(v float64, neg bool) float64 {
	if neg {
		return -v
	}
	return v
}

// sumExact reports whether r = x + y held exactly in float64 (TwoSum
// residual is zero).
func sumExact(x, y, r float64) bool {
	bv := r - x
	return (x-(r-bv))+(y-bv) == 0
}

// mulExact reports whether r = x * y held exactly in float64.
func mulExact(x, y, r float64) bool {
	return math.FMA(x, y, -r) == 0
}

// divExact reports whether r = x / y held exactly in float64.
func divExact(x, y, r float64) bool {
	return math.FMA(r, y, -x) == 0
}

// sqrtExact reports whether r = sqrt(x) held exactly in float64.
func sqrtExact(x, r float64) bool {
	return math.FMA(r, r, -x) == 0
}

// --- wide posits ---

// widePosit is the fast implementation of a posit wider than 16 bits:
// float64 arithmetic re-rounded through roundTables, with the integer
// pipeline as the escape for results exactly on a boundary.
type widePosit struct {
	c posit.Config
	t *roundTables
}

func newWidePosit(c posit.Config) *widePosit {
	t := &roundTables{
		minScale: c.MinScale(),
		maxScale: c.MaxScale(),
		minPosV:  c.ToFloat64(c.MinPos()),
		maxFinV:  c.ToFloat64(c.MaxPos()),
	}
	n := t.maxScale - t.minScale + 1
	t.down = make([]float64, n)
	t.up = make([]float64, n)
	t.mid = make([]float64, n)
	t.downOdd = make([]bool, n)
	fb := make([]int8, n)
	for s := t.minScale; s <= t.maxScale; s++ {
		i := s - t.minScale
		if fb[i] = int8(rawFracBits(c, s)); fb[i] >= 1 {
			continue
		}
		// Largest posit <= 2^s.
		p := c.FromFloat64(math.Ldexp(1, s))
		if c.ToFloat64(p) > math.Ldexp(1, s) {
			p = c.Prev(p)
		}
		t.down[i] = c.ToFloat64(p)
		if p == c.MaxPos() {
			t.up[i] = math.Inf(1)
		} else {
			t.up[i] = c.ToFloat64(c.Next(p))
		}
		// Pattern-space midpoint: the (n+1)-bit posit 2p+1.
		mv := bigfp.PatternValue(c.N()+1, c.ES(), uint64(p)*2+1)
		t.mid[i], _ = mv.Float64()
		t.downOdd[i] = uint64(p)&1 == 1
	}
	t.inline = newInlineTable(t.minScale, fb)
	return &widePosit{c: c, t: t}
}

// rawFracBits is FracBitsAtScale without the clamp at zero: negative
// values count exponent bits cut off by the regime.
func rawFracBits(c posit.Config, scale int) int {
	pow := 1 << uint(c.ES())
	k := scale / pow
	if scale%pow != 0 && scale < 0 {
		k--
	}
	var rlen int
	if k >= 0 {
		rlen = k + 2
	} else {
		rlen = -k + 1
	}
	return c.N() - 1 - rlen - c.ES()
}

func (p *widePosit) Name() string { return p.c.String() }

func (p *widePosit) FromFloat64(x float64) Num {
	// An external float64 is its own exact value: ties are genuine.
	v, _ := p.t.round(x, true)
	return n64(v)
}

func (p *widePosit) ToFloat64(a Num) float64 { return f64(a) }

// exact2 reruns a binary operation through the integer pipeline.
func (p *widePosit) exact2(op func(posit.Config, posit.Bits, posit.Bits) posit.Bits, a, b float64) Num {
	r := op(p.c, p.c.FromFloat64(a), p.c.FromFloat64(b))
	return n64(p.c.ToFloat64(r))
}

// addVal and mulVal are Add and Mul in the value domain (float64 in,
// float64 out): the scalar operations, and the slice kernels' way off
// their inline paths, so both round identically by construction.
func (p *widePosit) addVal(x, y float64) float64 {
	r := x + y
	if v, ok := p.t.round(r, false); ok {
		return v
	}
	if sumExact(x, y, r) {
		v, _ := p.t.round(r, true)
		return v
	}
	return f64(p.exact2(posit.Config.Add, x, y))
}

func (p *widePosit) mulVal(x, y float64) float64 {
	r := x * y
	if v, ok := p.t.round(r, false); ok {
		return v
	}
	if mulExact(x, y, r) {
		v, _ := p.t.round(r, true)
		return v
	}
	return f64(p.exact2(posit.Config.Mul, x, y))
}

func (p *widePosit) Add(a, b Num) Num { return n64(p.addVal(f64(a), f64(b))) }

// Sub(a, b) = Add(a, -b): rounding is sign-symmetric and -b is exact.
func (p *widePosit) Sub(a, b Num) Num { return n64(p.addVal(f64(a), -f64(b))) }

func (p *widePosit) Mul(a, b Num) Num { return n64(p.mulVal(f64(a), f64(b))) }

// MulAdd fuses the pair in the value domain: product rounded, then sum
// rounded — bit-identical to Add(Mul(a, b), c) with one dispatch.
func (p *widePosit) MulAdd(a, b, c Num) Num {
	return n64(p.addVal(p.mulVal(f64(a), f64(b)), f64(c)))
}

func (p *widePosit) Div(a, b Num) Num {
	x, y := f64(a), f64(b)
	if y == 0 {
		return n64(math.NaN()) // posit: division by zero is NaR
	}
	r := x / y
	if v, ok := p.t.round(r, false); ok {
		return n64(v)
	}
	if divExact(x, y, r) {
		v, _ := p.t.round(r, true)
		return n64(v)
	}
	return p.exact2(posit.Config.Div, x, y)
}

func (p *widePosit) Sqrt(a Num) Num {
	x := f64(a)
	if x < 0 {
		return n64(math.NaN())
	}
	r := math.Sqrt(x)
	if v, ok := p.t.round(r, false); ok {
		return n64(v)
	}
	if sqrtExact(x, r) {
		v, _ := p.t.round(r, true)
		return n64(v)
	}
	rp := p.c.Sqrt(p.c.FromFloat64(x))
	return n64(p.c.ToFloat64(rp))
}

func (p *widePosit) Neg(a Num) Num {
	v := -f64(a)
	if v == 0 {
		v = 0 // posit has a single (positive) zero
	}
	return n64(v)
}
func (p *widePosit) Zero() Num          { return n64(0) }
func (p *widePosit) One() Num           { return n64(1) }
func (p *widePosit) IsZero(a Num) bool  { return f64(a) == 0 }
func (p *widePosit) Bad(a Num) bool     { return math.IsNaN(f64(a)) }
func (p *widePosit) Less(a, b Num) bool { return f64(a) < f64(b) }
func (p *widePosit) Eps() float64       { return positEps(p.c) }
func (p *widePosit) MaxValue() float64  { return p.t.maxFinV }
