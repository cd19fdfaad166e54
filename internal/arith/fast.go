package arith

import (
	"math"
	"sync"
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
// leaves to the format's engine. The engine is chosen by width in
// FastPosit and FastMini, and built on first use through the per-spec
// registry in tablereg.go:
//
//   - formats of at most 16 bits (every posit8 and posit16, Float16,
//     BFloat16, FP8) get the exhaustive lookup tables, Tables
//     (table.go, exact.go);
//   - posits wider than 16 bits get roundTables below, the inline step
//     with the integer pipeline as the last resort.
//
// Both engines build the inline step in one place, newInlineTable
// (exact.go), from the fraction bits at each scale and the engine's
// own rounding of the binades without them: the tables' cuts, or the
// posit's integer pipeline. It rounds every binade that has a single
// answer on each side of its cut, the region scales and the clamps
// past the format's range included, so the engine sees only NaN and
// infinities, a posit's zero, an IEEE format's top binade and results
// exactly on a rounding boundary.
//
// Rounding through float64 preserves correct rounding exactly. The
// hazard is double rounding: the float64-rounded result of an operation
// may round differently than the exact result would. It can only do so
// when it lands exactly on a rounding boundary of the target format.
// Every such boundary of a format in this study is itself a float64
// value, and the float64 result r is the float64 nearest the exact
// result; so when r is not on a boundary B, the exact result is on r's
// side of B, and rounding r rounds the exact result. Only a result
// exactly on a boundary needs more than r: a sum whose TwoSum residual
// is zero is a genuine tie, which the format settles itself, and every
// other hit goes to the engine, which resolves it by the sum's residual
// or as an exact value, or, for a posit wider than 16 bits, through the
// integer pipeline. The fast path is bit-identical to the slow path,
// which differential tests assert.

// FastPosit builds the fast implementation of a posit format. It is
// bit-compatible with Posit(c) in results; only the Num encoding
// differs (float64 value bits instead of posit patterns).
func FastPosit(c posit.Config) Format {
	f := &fastFormat{
		name:     c.String(),
		id:       c,
		eps:      positEps(c),
		maxValue: c.ToFloat64(c.MaxPos()),
		spec:     positSpec(c),
	}
	if c.N() <= 16 {
		// Every posit with n <= 16 is exact-product eligible: at most
		// 14 significand bits and |scale| <= 224 (see exact.go).
		f.build = func() engine { return buildPositTables(c) }
	} else {
		f.build = func() engine { return newRoundTables(c) }
	}
	return f
}

// FastMini builds the fast implementation of an IEEE small format,
// bit-compatible in results with the minifloat integer pipeline. A
// format the table engine cannot serve gets the reference Mini; no
// registered format is one.
func FastMini(f minifloat.Format, name string) Format {
	if !exactEligibleMini(f) {
		return Mini(f, name)
	}
	return &fastFormat{
		name:     name,
		id:       f,
		ieee:     true,
		eps:      miniEps(f),
		maxValue: f.MaxValue(),
		spec:     miniSpec(f),
		build:    func() engine { return buildMiniTables(f) },
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

// fastFormat is the fast implementation of a format: its Num is the
// value as float64 bits, and every operation rounds through the inline
// step of the format's engine, calling the engine for what the step
// leaves.
type fastFormat struct {
	name string
	// id is the format's identity, a posit.Config or a
	// minifloat.Format, for PositConfig and MiniConfig.
	id any
	// ieee marks the IEEE formats, which keep a signed zero and
	// infinities; a posit has one zero and NaR.
	ieee          bool
	eps, maxValue float64

	// spec is the engine's registry identity and build makes it.
	spec  string
	build func() engine
	once  sync.Once
	// inline is the engine's inline table, stored once eng is set, so
	// a caller that loaded a non-nil inline may read eng.
	inline atomic.Pointer[inlineTable]
	eng    engine
}

// engine is what a fast format calls for a result its inline step
// does not round: each method returns the rounded value of a result r,
// given the operands it came from.
type engine interface {
	// table returns the engine's inline step.
	table() *inlineTable
	// exact rounds an exact value, FromFloat64's argument.
	exact(x float64) float64
	// mul, sum, quo and root round r = fl(x·y), fl(x+y), fl(x/y) and
	// fl(√x).
	mul(x, y, r float64) float64
	sum(x, y, r float64) float64
	quo(x, y, r float64) float64
	root(x, r float64) float64
}

// table returns f's inline table, building f's engine on first use.
// After the first use it is one atomic load and a nil check, small
// enough to inline into every operation (make inline checks that).
func (f *fastFormat) table() *inlineTable {
	if t := f.inline.Load(); t != nil {
		return t
	}
	return f.load()
}

// load sets f's engine from the registry, which builds it if no format
// value of f's spec has.
func (f *fastFormat) load() *inlineTable {
	f.once.Do(func() {
		f.eng = engineFor(f.spec, f.build)
		f.inline.Store(f.eng.table())
	})
	return f.inline.Load()
}

// TablesOf returns the lookup-table engine behind f and whether f has
// one (the <=16-bit fast formats), building f's engine on first use.
// Callers like positd's /v1/convert use it for O(1) canonical
// encodings.
func TablesOf(f Format) (*Tables, bool) {
	if k, ok := f.(*fastFormat); ok {
		k.table()
		t, ok := k.eng.(*Tables)
		return t, ok
	}
	return nil, false
}

// --- scalar operations ---
//
// Each op: native float64 arithmetic, then the inline step, then — for
// a sum — the genuine tie of a zero TwoSum residual, and the engine for
// anything else. The slice kernels (kernels.go) take the same steps,
// with a shortcut for zero results.

func (f *fastFormat) Name() string { return f.name }

// FromFloat64 rounds x, which is its own exact value: a boundary hit is
// a genuine tie.
func (f *fastFormat) FromFloat64(x float64) Num {
	if r, _, ok := f.table().round(math.Float64bits(x)); ok {
		return Num(r)
	}
	return n64(f.eng.exact(x))
}

func (f *fastFormat) ToFloat64(a Num) float64 { return f64(a) }

// mul and add are Mul and Add in the value domain, for the scalar
// operations that compose them.
func (f *fastFormat) mul(x, y float64) float64 {
	m := x * y
	if r, _, ok := f.table().round(math.Float64bits(m)); ok {
		return math.Float64frombits(r)
	}
	return f.eng.mul(x, y, m)
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
	return f.eng.sum(x, y, s)
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
	return n64(f.eng.quo(x, y, q))
}

func (f *fastFormat) Sqrt(a Num) Num {
	x := f64(a)
	r := math.Sqrt(x)
	if v, _, ok := f.table().round(math.Float64bits(r)); ok {
		return Num(v)
	}
	return n64(f.eng.root(x, r))
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

// sumExact reports whether r = x + y held exactly in float64 (TwoSum
// residual is zero).
func sumExact(x, y, r float64) bool { return sumErr(x, y, r) == 0 }

// sumErr is Knuth's TwoSum residual of r = fl(x+y): x + y = r + e
// exactly, for r correctly rounded.
func sumErr(x, y, r float64) float64 {
	bv := r - x
	return (x - (r - bv)) + (y - bv)
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

// roundTables is the engine of a posit wider than 16 bits: the inline
// step, and the integer pipeline for what it leaves.
type roundTables struct {
	c posit.Config
	// inline is the inline rounding step (exact.go), probed from the
	// pipeline.
	inline *inlineTable
}

func newRoundTables(c posit.Config) *roundTables {
	value := func(x float64) float64 { return c.ToFloat64(c.FromFloat64(x)) }
	return &roundTables{c: c, inline: newInlineTable(c.MinScale(), positFracBits(c), value)}
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

func (t *roundTables) table() *inlineTable { return t.inline }

// exact rounds an exact x: a result on a boundary in a scale with
// fraction bits is a genuine tie, which goes to the even pattern by
// the kept-bit parity, and the integer pipeline rounds the rest (a
// region boundary, zeros and specials).
func (t *roundTables) exact(x float64) float64 {
	r, par, ok := t.inline.round(math.Float64bits(x))
	if ok {
		return math.Float64frombits(r)
	}
	if par != 0 {
		return math.Float64frombits(r + r&par)
	}
	return t.c.ToFloat64(t.c.FromFloat64(x))
}

// mul, sum, quo and root get r on a boundary, a zero or a special. r is
// the exact result when the residual is zero, and otherwise the
// integer pipeline decides, from the operands as the format holds them.
// quo needs no case for y = 0: x/0 is ±Inf or NaN, whose residual is
// NaN, and the pipeline makes it NaR, as posit division by zero is.

func (t *roundTables) mul(x, y, r float64) float64 {
	if mulExact(x, y, r) {
		return t.exact(r)
	}
	c := t.c
	return c.ToFloat64(c.Mul(c.FromFloat64(x), c.FromFloat64(y)))
}

func (t *roundTables) sum(x, y, r float64) float64 {
	if sumExact(x, y, r) {
		return t.exact(r)
	}
	c := t.c
	return c.ToFloat64(c.Add(c.FromFloat64(x), c.FromFloat64(y)))
}

func (t *roundTables) quo(x, y, r float64) float64 {
	if divExact(x, y, r) {
		return t.exact(r)
	}
	c := t.c
	return c.ToFloat64(c.Div(c.FromFloat64(x), c.FromFloat64(y)))
}

func (t *roundTables) root(x, r float64) float64 {
	if sqrtExact(x, r) {
		return t.exact(r)
	}
	c := t.c
	return c.ToFloat64(c.Sqrt(c.FromFloat64(x)))
}
