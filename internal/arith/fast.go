package arith

import (
	"math"
	"sync/atomic"

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
// Every such format is one type, fastFormat. Its scalar operations
// (below) and its slice kernels (kernels.go) round each result through
// the inline step, inlineTable.round (exact.go), and hand what the step
// leaves to the off path (exact.go), which calls the format's
// integer-pipeline reference, Posit(c) or Mini(f, name). The step's
// table is built on first use through the per-spec registry in
// tablereg.go, probed through the same reference: it rounds every
// binade that has a single answer on each side of its cut, the region
// scales and the clamps past the format's range included, so the off
// path sees only NaN and infinities, a posit's zero, an IEEE format's
// top binade and results exactly on a rounding boundary.
//
// Rounding through float64 preserves correct rounding exactly. The
// hazard is double rounding: the float64-rounded result of an operation
// may round differently than the exact result would. It can only do so
// when it lands exactly on a rounding boundary of the target format.
// Every such boundary of a format in this study is itself a float64
// value, and the float64 result r is the float64 nearest the exact
// result; so when r is not on a boundary B, the exact result is on r's
// side of B, and rounding r rounds the exact result. Only a result
// exactly on a boundary needs more than r: an exact one (a zero TwoSum
// residual or FMA remainder) is a genuine tie, which goes to the even
// pattern, and the reference rounds an inexact one from the operands.
// The fast path is bit-identical to the slow path, which differential
// tests assert.

// FastPosit builds the fast implementation of a posit format. It is
// bit-compatible with Posit(c) in results; only the Num encoding
// differs (float64 value bits instead of posit patterns).
func FastPosit(c posit.Config) Format {
	ref := Posit(c)
	return &fastFormat{
		name:     c.String(),
		ref:      ref,
		eps:      positEps(c),
		maxValue: c.ToFloat64(c.MaxPos()),
		spec:     positSpec(c),
		build:    func() *inlineTable { return newInlineTable(c.MinScale(), positFracBits(c), ref) },
	}
}

// positFracBits returns the count of explicit fraction bits at each
// scale of c, from minpos's up.
func positFracBits(c posit.Config) []int8 {
	fb := make([]int8, c.MaxScale()-c.MinScale()+1)
	for i := range fb {
		fb[i] = int8(c.FracBitsAtScale(c.MinScale() + i))
	}
	return fb
}

// FastMini builds the fast implementation of an IEEE small format,
// bit-compatible in results with the minifloat integer pipeline. A
// format that exactEligibleMini refuses gets the reference Mini; no
// registered format is one.
func FastMini(f minifloat.Format, name string) Format {
	if !exactEligibleMini(f) {
		return Mini(f, name)
	}
	ref := Mini(f, name)
	return &fastFormat{
		name:     name,
		ref:      ref,
		ieee:     true,
		eps:      miniEps(f),
		maxValue: f.MaxValue(),
		spec:     miniSpec(f),
		build: func() *inlineTable {
			// The i-th subnormal binade keeps i fraction bits. The top
			// binade is left out: its carry can round past maxFinite, so
			// the reference decides it.
			minScale := f.Emin() - f.FracBits()
			fb := make([]int8, f.Emax()-minScale)
			for i := range fb {
				fb[i] = int8(min(i, f.FracBits()))
			}
			return newInlineTable(minScale, fb, ref)
		},
	}
}

// exactEligibleMini reports whether FastMini serves an IEEE format:
// width at most 16, so the exhaustive tests reach every value, and the
// product of any two format values a normal float64, so a product is
// always exact and never needs the reference's Mul. binary32 keeps its
// reference Mini.
func exactEligibleMini(f minifloat.Format) bool {
	frac := f.FracBits()
	return f.Width() <= 16 &&
		2*(frac+1) <= 53 &&
		2*f.Emax()+2 <= 1022 &&
		2*(f.Emin()-frac) >= -1020
}

// fastFormat is the fast implementation of a format: its Num is the
// value as float64 bits, and every operation rounds through the
// format's inline step, calling the off path for what the step leaves.
type fastFormat struct {
	name string
	// ref is the integer-pipeline reference, Posit(c) or Mini(f, name):
	// the off path's last resort, the inline table's probe, and the
	// format's identity for PositConfig and MiniConfig.
	ref Format
	// ieee marks the IEEE formats, which keep a signed zero and
	// infinities; a posit has one zero and NaR.
	ieee          bool
	eps, maxValue float64

	// spec is the inline table's registry identity and build makes it.
	spec   string
	build  func() *inlineTable
	inline atomic.Pointer[inlineTable]
}

// table returns f's inline table, building it on first use. After the
// first use it is one atomic load and a nil check, small enough to
// inline into every operation (make inline checks that).
func (f *fastFormat) table() *inlineTable {
	if t := f.inline.Load(); t != nil {
		return t
	}
	return f.load()
}

// load sets f's inline table from the registry, which builds it if no
// format value of f's spec has.
func (f *fastFormat) load() *inlineTable {
	t := tableFor(f.spec, f.build)
	f.inline.Store(t)
	return t
}

// Tables is a fast format's inline rounding table, as TablesOf returns
// it.
type Tables = inlineTable

// TablesOf returns the inline rounding table of f and whether f is a
// fast format, building the table on first use. perfbench's set-up
// builds and sizes the tables of its formats through it.
func TablesOf(f Format) (*Tables, bool) {
	if k, ok := f.(*fastFormat); ok {
		return k.table(), true
	}
	return nil, false
}

// MemBytes returns the table's resident size.
func (t *inlineTable) MemBytes() int { return len(t) * 32 }

// --- scalar operations ---
//
// Each op: native float64 arithmetic, then the inline step, then — for
// a sum — the genuine tie of a zero TwoSum residual, and the off path
// (exact.go) for anything else. The slice kernels (kernels.go) take the
// same steps, with a shortcut for zero results.

func (f *fastFormat) Name() string { return f.name }

// FromFloat64 rounds x, which is its own exact value: a boundary hit is
// a genuine tie.
func (f *fastFormat) FromFloat64(x float64) Num {
	if r, _, ok := f.table().round(math.Float64bits(x)); ok {
		return Num(r)
	}
	return n64(f.exact(x))
}

func (f *fastFormat) ToFloat64(a Num) float64 { return f64(a) }

// mul and add are Mul and Add in the value domain, for the scalar
// operations that compose them.
func (f *fastFormat) mul(x, y float64) float64 {
	m := x * y
	if r, _, ok := f.table().round(math.Float64bits(m)); ok {
		return math.Float64frombits(r)
	}
	return f.offMul(x, y, m)
}

func (f *fastFormat) add(x, y float64) float64 {
	s := x + y
	r, par, ok := f.table().round(math.Float64bits(s))
	if ok {
		return math.Float64frombits(r)
	}
	if par != 0 && sumExact(x, y, s) {
		return math.Float64frombits(r + r&par)
	}
	return f.offSum(x, y, s)
}

func (f *fastFormat) Add(a, b Num) Num { return n64(f.add(f64(a), f64(b))) }

// Sub(a, b) = Add(a, -b): rounding is sign-symmetric and -b is exact.
func (f *fastFormat) Sub(a, b Num) Num { return n64(f.add(f64(a), -f64(b))) }

func (f *fastFormat) Mul(a, b Num) Num { return n64(f.mul(f64(a), f64(b))) }

// MulAdd fuses the pair in the value domain: product rounded, then sum
// rounded — bit-identical to Add(Mul(a, b), c) with one dispatch.
func (f *fastFormat) MulAdd(a, b, c Num) Num {
	return n64(f.add(f.mul(f64(a), f64(b)), f64(c)))
}

func (f *fastFormat) Div(a, b Num) Num {
	x, y := f64(a), f64(b)
	q := x / y
	if r, _, ok := f.table().round(math.Float64bits(q)); ok {
		return Num(r)
	}
	return n64(f.offQuo(x, y, q))
}

func (f *fastFormat) Sqrt(a Num) Num {
	x := f64(a)
	r := math.Sqrt(x)
	if v, _, ok := f.table().round(math.Float64bits(r)); ok {
		return Num(v)
	}
	return n64(f.offRoot(x, r))
}

func (f *fastFormat) Neg(a Num) Num {
	v := -f64(a)
	if v == 0 && !f.ieee {
		v = 0 // posit has a single (positive) zero
	}
	return n64(v)
}

func (f *fastFormat) Zero() Num         { return n64(0) }
func (f *fastFormat) One() Num          { return n64(1) }
func (f *fastFormat) IsZero(a Num) bool { return f64(a) == 0 }

// Bad reports NaN/NaR or an IEEE infinity; a posit never holds an
// infinity.
func (f *fastFormat) Bad(a Num) bool {
	v := f64(a)
	return math.IsNaN(v) || math.IsInf(v, 0)
}
func (f *fastFormat) Less(a, b Num) bool { return f64(a) < f64(b) }
func (f *fastFormat) Eps() float64       { return f.eps }
func (f *fastFormat) MaxValue() float64  { return f.maxValue }

// sumExact reports whether r = x + y held exactly in float64: Knuth's
// TwoSum residual of r = fl(x+y), which is x + y − r exactly, is zero.
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
