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
// through float64 is double rounding: the float64-rounded result can
// sit so close to a rounding boundary of the target format that it
// rounds differently than the exact result would. The rounder detects
// every such ambiguity conservatively — the discarded bits landing
// within one 53-bit ulp of the halfway pattern — and falls back to the
// exact integer pipeline for that operation. The ambiguous band has
// width 2^-(53-p) of an ulp, so fallbacks are vanishingly rare (~1e-7
// for posit32) and the fast path is bit-identical to the slow path,
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

// roundTables drives value-domain rounding for one posit format.
type roundTables struct {
	minScale int // scale of minpos
	maxScale int // scale of maxpos
	// fb[s-minScale]: explicit fraction bits at scale s. Negative
	// values mark scales where the cut reaches the exponent/regime
	// fields near the ends of the range; those go through the region
	// tables below.
	fb []int8
	// Region tables, populated where fb <= 0: the bracketing
	// representable values around 2^s, the rounding midpoint between
	// them, and the parity of the lower pattern (for ties).
	down, up, mid []float64
	downOdd       []bool
	minPosV       float64 // minpos: underflow clamps here
	maxFinV       float64 // maxpos: overflow clamps here
	// maxFinBits is math.Float64bits(maxFinV), for the bit-domain
	// overflow check on the kernel hot path.
	maxFinBits uint64
}

// roundHot rounds x on the common path — finite, nonzero, in a scale
// region with explicit fraction bits, away from any double-rounding
// ambiguity, and not overflowing — entirely in integer registers.
// ok=false sends the caller to the full round/fallback path; whenever
// both succeed the result is bit-identical to round(x, false). This is
// the slice-kernel inner loop: one call-free rounding step instead of
// an interface dispatch plus the general rounder.
func (t *roundTables) roundHot(x float64) (float64, bool) {
	bits := math.Float64bits(x)
	abits := bits &^ (1 << 63)
	e := int(abits >> 52)
	// e == 0 covers zeros and float64 subnormals; e == 2047 covers
	// NaN/Inf; out-of-table scales cover under/overflow and the region
	// path. All bail to the general rounder.
	idx := e - 1023 - t.minScale
	if e == 0 || uint(idx) >= uint(len(t.fb)) {
		return 0, false
	}
	fbits := int(t.fb[idx])
	if fbits < 1 {
		return 0, false
	}
	drop := uint(52 - fbits)
	discarded := abits & (1<<drop - 1)
	half := uint64(1) << (drop - 1)
	// Ambiguous double-rounding band: discarded ∈ {half-1, half, half+1}.
	if discarded-(half-1) <= 2 {
		return 0, false
	}
	rbits := abits - discarded
	if discarded > half {
		// Round up; a mantissa carry flows into the exponent field and
		// lands exactly on the next power of two.
		rbits += 1 << drop
	}
	if rbits > t.maxFinBits {
		return 0, false // overflow: the general rounder clamps
	}
	return math.Float64frombits(rbits | bits&(1<<63)), true
}

// round rounds a float64 to the posit's value set with round-to-
// nearest-even in pattern space. ok=false reports an ambiguous
// double-rounding case the caller must resolve — either by proving x
// is the exact result (re-round with exact=true; common for sums,
// whose ties are real) or through the integer pipeline.
func (t *roundTables) round(x float64, exact bool) (v float64, ok bool) {
	if x == 0 {
		return 0, true // posit has a single zero
	}
	if math.IsNaN(x) {
		return x, true
	}
	if math.IsInf(x, 0) {
		return math.NaN(), true // infinite intermediates are NaR
	}
	neg := math.Signbit(x)
	a := math.Abs(x)
	bits := math.Float64bits(a)
	exp := int(bits>>52) - 1023
	if bits>>52 == 0 {
		exp = -1023 // subnormal float64: far below every format's range
	}

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

	idx := exp - t.minScale
	fbits := int(t.fb[idx])
	if fbits >= 1 {
		drop := uint(52 - fbits)
		mant := bits & (1<<52 - 1)
		kept := mant >> drop
		discarded := mant & (1<<drop - 1)
		half := uint64(1) << (drop - 1)
		// Ambiguity: discarded within one 53-bit ulp of halfway. If x
		// is known exact, discarded == half is a genuine tie and the
		// neighbors are unambiguous.
		if !exact && discarded >= half-1 && discarded <= half+1 {
			return 0, false
		}
		if discarded > half || (discarded == half && kept&1 == 1) {
			kept++
		}
		v = math.Ldexp(float64((1<<uint(fbits))+kept), exp-fbits)
		if v > t.maxFinV {
			v = t.maxFinV
		}
		return signed(v, neg), true
	}

	// Region path: zero or negative fraction bits — the value rounds
	// between down[s] and up[s] with the format's own midpoint.
	down, up, mid := t.down[idx], t.up[idx], t.mid[idx]
	if !exact && closeTo(a, mid) {
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

// closeTo reports |a-b| within one float64 ulp, via pattern distance
// (both positive finite).
func closeTo(a, b float64) bool {
	ba, bb := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	d := ba - bb
	return d >= -1 && d <= 1
}

// --- wide posits ---

// widePosit is the fast implementation of a posit wider than 16 bits:
// float64 arithmetic re-rounded through roundTables, with the integer
// pipeline as the escape for ambiguous results.
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
	t.maxFinBits = math.Float64bits(t.maxFinV)
	n := t.maxScale - t.minScale + 1
	t.fb = make([]int8, n)
	t.down = make([]float64, n)
	t.up = make([]float64, n)
	t.mid = make([]float64, n)
	t.downOdd = make([]bool, n)
	for s := t.minScale; s <= t.maxScale; s++ {
		i := s - t.minScale
		t.fb[i] = int8(rawFracBits(c, s))
		if t.fb[i] >= 1 {
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
// float64 out); the Format methods and the slice kernels share them so
// both paths round identically by construction.
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

func (p *widePosit) Sub(a, b Num) Num {
	x, y := f64(a), f64(b)
	r := x - y
	if v, ok := p.t.round(r, false); ok {
		return n64(v)
	}
	if sumExact(x, -y, r) {
		v, _ := p.t.round(r, true)
		return n64(v)
	}
	return p.exact2(posit.Config.Sub, x, y)
}

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
