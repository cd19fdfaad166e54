// Package arith presents every number format in the study — native
// IEEE float64/float32, software Float16/BFloat16, and Posit(n,es) —
// behind one interface of operations on opaque uint64 bit patterns, so
// each solver is written once and runs identically under any format.
// This mirrors the paper's methodology ("one algorithm specification to
// test each different arithmetic format", §IV-A).
package arith

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

// Num is a value in some Format, stored as a bit pattern. A Num is only
// meaningful together with the Format that produced it.
type Num uint64

// Format is finite-precision real arithmetic over bit patterns. All
// operations are correctly rounded in the respective format.
type Format interface {
	Name() string

	FromFloat64(float64) Num
	ToFloat64(Num) float64

	Add(a, b Num) Num
	Sub(a, b Num) Num
	Mul(a, b Num) Num
	Div(a, b Num) Num
	Sqrt(a Num) Num
	Neg(a Num) Num

	// MulAdd returns fl(fl(a·b) + c): the product rounded in the
	// format, then the sum rounded in the format — exactly
	// Add(Mul(a, b), c) in one call. It is the solvers' ubiquitous
	// inner-loop pair (dot products, axpy updates, factorization
	// updates); fusing it into one dispatch halves the per-element
	// interface cost without changing a single rounding.
	MulAdd(a, b, c Num) Num

	Zero() Num
	One() Num

	// IsZero reports a zero pattern.
	IsZero(Num) bool
	// Bad reports an exceptional value: posit NaR, IEEE NaN or ±Inf.
	// Solvers treat it as "arithmetic error encountered", the '-'
	// entries of Table II.
	Bad(Num) bool
	// Less is an ordered value comparison (false when either side is
	// exceptional).
	Less(a, b Num) bool

	// Eps returns the unit roundoff at 1.0 (half the relative gap).
	Eps() float64
	// MaxValue returns the largest finite representable magnitude.
	MaxValue() float64
}

// --- float64 (native) ---

type float64Format struct{}

// Float64 is native IEEE binary64, the paper's working/reference
// precision.
var Float64 Format = float64Format{}

func (float64Format) Name() string              { return "Float64" }
func (float64Format) FromFloat64(x float64) Num { return Num(math.Float64bits(x)) }
func (float64Format) ToFloat64(a Num) float64   { return math.Float64frombits(uint64(a)) }

func f64(a Num) float64 { return math.Float64frombits(uint64(a)) }
func n64(x float64) Num { return Num(math.Float64bits(x)) }

func (float64Format) Add(a, b Num) Num { return n64(f64(a) + f64(b)) }
func (float64Format) Sub(a, b Num) Num { return n64(f64(a) - f64(b)) }
func (float64Format) Mul(a, b Num) Num { return n64(f64(a) * f64(b)) }
func (float64Format) Div(a, b Num) Num { return n64(f64(a) / f64(b)) }
func (float64Format) MulAdd(a, b, c Num) Num {
	// The explicit conversion forces the product to round before the
	// add (the Go spec permits fusing x*y+z into an FMA otherwise).
	p := float64(f64(a) * f64(b))
	return n64(p + f64(c))
}
func (float64Format) Sqrt(a Num) Num    { return n64(math.Sqrt(f64(a))) }
func (float64Format) Neg(a Num) Num     { return n64(-f64(a)) }
func (float64Format) Zero() Num         { return n64(0) }
func (float64Format) One() Num          { return n64(1) }
func (float64Format) IsZero(a Num) bool { return f64(a) == 0 }
func (float64Format) Bad(a Num) bool {
	v := f64(a)
	return math.IsNaN(v) || math.IsInf(v, 0)
}
func (float64Format) Less(a, b Num) bool { return f64(a) < f64(b) }
func (float64Format) Eps() float64       { return 0x1p-53 }
func (float64Format) MaxValue() float64  { return math.MaxFloat64 }

// --- float32 (native) ---

type float32Format struct{}

// Float32 is native IEEE binary32. Go's float32 operations are single
// operations with one rounding each, per the language spec.
var Float32 Format = float32Format{}

func f32(a Num) float32 { return math.Float32frombits(uint32(a)) }
func n32(x float32) Num { return Num(math.Float32bits(x)) }

func (float32Format) Name() string              { return "Float32" }
func (float32Format) FromFloat64(x float64) Num { return n32(float32(x)) }
func (float32Format) ToFloat64(a Num) float64   { return float64(f32(a)) }
func (float32Format) Add(a, b Num) Num          { return n32(f32(a) + f32(b)) }
func (float32Format) Sub(a, b Num) Num          { return n32(f32(a) - f32(b)) }
func (float32Format) Mul(a, b Num) Num          { return n32(f32(a) * f32(b)) }
func (float32Format) Div(a, b Num) Num          { return n32(f32(a) / f32(b)) }
func (float32Format) MulAdd(a, b, c Num) Num {
	p := float32(f32(a) * f32(b)) // explicit conversion: no FMA fusing
	return n32(p + f32(c))
}
func (float32Format) Sqrt(a Num) Num {
	// math.Sqrt is correctly rounded to 53 bits; rounding that to 24
	// bits is innocuous (53 >= 2*24+2).
	return n32(float32(math.Sqrt(float64(f32(a)))))
}
func (float32Format) Neg(a Num) Num     { return n32(-f32(a)) }
func (float32Format) Zero() Num         { return n32(0) }
func (float32Format) One() Num          { return n32(1) }
func (float32Format) IsZero(a Num) bool { return f32(a) == 0 }
func (float32Format) Bad(a Num) bool {
	v := f32(a)
	return v != v || math.IsInf(float64(v), 0)
}
func (float32Format) Less(a, b Num) bool { return f32(a) < f32(b) }
func (float32Format) Eps() float64       { return 0x1p-24 }
func (float32Format) MaxValue() float64  { return math.MaxFloat32 }

// --- minifloat-backed formats ---

type miniFormat struct {
	f    minifloat.Format
	name string
}

// Mini wraps a minifloat format through its integer pipeline — the
// reference implementation the fast value-domain formats are
// differentially tested against.
func Mini(f minifloat.Format, name string) Format { return miniFormat{f, name} }

// Float16 is IEEE binary16 (software, correctly rounded, fast
// value-domain implementation).
var Float16 = FastMini(minifloat.Float16, "Float16")

// BFloat16 is the brain-float extension format.
var BFloat16 = FastMini(minifloat.BFloat16, "BFloat16")

// FP8E5M2 and FP8E4M3 are 8-bit IEEE-style extension formats (the
// interchange variants with infinities and NaN), another data point on
// the tapered-vs-flat precision axis the paper explores at 16 bits.
var (
	FP8E5M2 = FastMini(minifloat.MustNew(5, 2), "FP8-E5M2")
	FP8E4M3 = FastMini(minifloat.MustNew(4, 3), "FP8-E4M3")
)

func (m miniFormat) Name() string              { return m.name }
func (m miniFormat) FromFloat64(x float64) Num { return Num(m.f.FromFloat64(x)) }
func (m miniFormat) ToFloat64(a Num) float64   { return m.f.ToFloat64(minifloat.Bits(a)) }
func (m miniFormat) Add(a, b Num) Num {
	return Num(m.f.Add(minifloat.Bits(a), minifloat.Bits(b)))
}
func (m miniFormat) Sub(a, b Num) Num {
	return Num(m.f.Sub(minifloat.Bits(a), minifloat.Bits(b)))
}
func (m miniFormat) Mul(a, b Num) Num {
	return Num(m.f.Mul(minifloat.Bits(a), minifloat.Bits(b)))
}
func (m miniFormat) Div(a, b Num) Num {
	return Num(m.f.Div(minifloat.Bits(a), minifloat.Bits(b)))
}
func (m miniFormat) MulAdd(a, b, c Num) Num { return m.Add(m.Mul(a, b), c) }
func (m miniFormat) Sqrt(a Num) Num         { return Num(m.f.Sqrt(minifloat.Bits(a))) }
func (m miniFormat) Neg(a Num) Num          { return Num(m.f.Neg(minifloat.Bits(a))) }
func (m miniFormat) Zero() Num              { return Num(m.f.Zero()) }
func (m miniFormat) One() Num               { return Num(m.f.One()) }
func (m miniFormat) IsZero(a Num) bool      { return m.f.IsZero(minifloat.Bits(a)) }
func (m miniFormat) Bad(a Num) bool {
	p := minifloat.Bits(a)
	return m.f.IsNaN(p) || m.f.IsInf(p)
}
func (m miniFormat) Less(a, b Num) bool {
	return m.f.Less(minifloat.Bits(a), minifloat.Bits(b))
}
func (m miniFormat) Eps() float64      { return miniEps(m.f) }
func (m miniFormat) MaxValue() float64 { return m.f.MaxValue() }

// --- posit-backed formats ---

type positFormat struct {
	c posit.Config
}

// Posit wraps a posit configuration as a Format through the integer
// pipeline — the reference implementation the fast value-domain
// formats are differentially tested against.
func Posit(c posit.Config) Format { return positFormat{c} }

// The paper's posit formats (fast value-domain implementations).
var (
	Posit16e1 = FastPosit(posit.Posit16e1)
	Posit16e2 = FastPosit(posit.Posit16e2)
	Posit32e2 = FastPosit(posit.Posit32e2)
	Posit32e3 = FastPosit(posit.Posit32e3)
)

func (p positFormat) Name() string {
	return fmt.Sprintf("Posit(%d,%d)", p.c.N(), p.c.ES())
}
func (p positFormat) FromFloat64(x float64) Num { return Num(p.c.FromFloat64(x)) }
func (p positFormat) ToFloat64(a Num) float64   { return p.c.ToFloat64(posit.Bits(a)) }
func (p positFormat) Add(a, b Num) Num          { return Num(p.c.Add(posit.Bits(a), posit.Bits(b))) }
func (p positFormat) Sub(a, b Num) Num          { return Num(p.c.Sub(posit.Bits(a), posit.Bits(b))) }
func (p positFormat) Mul(a, b Num) Num          { return Num(p.c.Mul(posit.Bits(a), posit.Bits(b))) }
func (p positFormat) Div(a, b Num) Num          { return Num(p.c.Div(posit.Bits(a), posit.Bits(b))) }
func (p positFormat) MulAdd(a, b, c Num) Num    { return p.Add(p.Mul(a, b), c) }
func (p positFormat) Sqrt(a Num) Num            { return Num(p.c.Sqrt(posit.Bits(a))) }
func (p positFormat) Neg(a Num) Num             { return Num(p.c.Neg(posit.Bits(a))) }
func (p positFormat) Zero() Num                 { return Num(p.c.Zero()) }
func (p positFormat) One() Num                  { return Num(p.c.One()) }
func (p positFormat) IsZero(a Num) bool         { return p.c.IsZero(posit.Bits(a)) }
func (p positFormat) Bad(a Num) bool            { return p.c.IsNaR(posit.Bits(a)) }
func (p positFormat) Less(a, b Num) bool {
	pa, pb := posit.Bits(a), posit.Bits(b)
	if p.c.IsNaR(pa) || p.c.IsNaR(pb) {
		return false
	}
	return p.c.Less(pa, pb)
}
func (p positFormat) Eps() float64      { return positEps(p.c) }
func (p positFormat) MaxValue() float64 { return p.c.ToFloat64(p.c.MaxPos()) }

// positEps and miniEps are the unit roundoff at 1.0 of a posit and of
// an IEEE small format.
func positEps(c posit.Config) float64 { return math.Ldexp(1, -(c.FracBitsAtScale(0) + 1)) }

func miniEps(f minifloat.Format) float64 { return math.Ldexp(1, -(f.FracBits() + 1)) }

// PositConfig returns the posit.Config behind f and whether f is
// posit-backed (either implementation).
func PositConfig(f Format) (posit.Config, bool) {
	switch pf := f.(type) {
	case positFormat:
		return pf.c, true
	case *fastFormat:
		return PositConfig(pf.ref)
	}
	return posit.Config{}, false
}

// MiniConfig returns the minifloat.Format behind f and whether f is
// minifloat-backed (either implementation). Together with PositConfig
// it lets callers recover a value's canonical encoding from the
// value-domain fast formats, whose Num is a float64 image rather than
// the format's own bit pattern.
func MiniConfig(f Format) (minifloat.Format, bool) {
	switch mf := f.(type) {
	case miniFormat:
		return mf.f, true
	case *fastFormat:
		return MiniConfig(mf.ref)
	}
	return minifloat.Format{}, false
}

// --- registry ---

var registry = map[string]Format{
	"float64":  Float64,
	"float32":  Float32,
	"float16":  Float16,
	"bfloat16": BFloat16,
	"fp8e5m2":  FP8E5M2,
	"fp8e4m3":  FP8E4M3,
}

func init() {
	for n := 8; n <= 32; n += 8 {
		for es := 0; es <= 4; es++ {
			c := posit.MustNew(n, es)
			registry[fmt.Sprintf("posit%des%d", n, es)] = FastPosit(c)
		}
	}
}

// ByName resolves a format by name: "float64", "float32", "float16",
// "bfloat16", "fp8e5m2", "fp8e4m3", or "posit<N>es<ES>" (e.g.
// "posit32es2"). Names are case-insensitive, and every format's own
// Name() is accepted too: "posit(32,2)" and "FP8-E4M3" are aliases.
func ByName(name string) (Format, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	key = strings.NewReplacer("(", "", ")", "", ",", "es", " ", "", "-", "").Replace(key)
	if f, ok := registry[key]; ok {
		return f, nil
	}
	names := make([]string, 0, len(registry))
	for k := range registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("arith: unknown format %q (known: %s)", name, strings.Join(names, ", "))
}

// Names returns every registered format name, sorted — the universe
// the differential kernel tests quantify over.
func Names() []string {
	names := make([]string, 0, len(registry))
	for k := range registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// MustByName is ByName that panics, for tests and tables of formats.
func MustByName(name string) Format {
	f, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return f
}

// Convert re-rounds a value from one format into another through
// float64, which is exact for every supported source format.
func Convert(from, to Format, a Num) Num {
	return to.FromFloat64(from.ToFloat64(a))
}

// FromFloat64Clamped converts x, clamping magnitudes beyond MaxValue to
// ±MaxValue instead of overflowing — the Table II loading rule ("if an
// entry is larger than the maximum representable value, round down to
// this value", following Higham's squeezing strategy). Posits clamp
// natively; IEEE formats need the explicit clamp to avoid ±Inf.
func FromFloat64Clamped(f Format, x float64) Num {
	if math.IsNaN(x) {
		return f.FromFloat64(x)
	}
	max := f.MaxValue()
	if x > max {
		x = max
	} else if x < -max {
		x = -max
	}
	return f.FromFloat64(x)
}
