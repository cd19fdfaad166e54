package arith_test

import (
	"fmt"
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

// pairs of (fast, slow) implementations that must agree bit-for-bit in
// results (as float64 values — the Num encodings differ by design).
var implPairs = []struct {
	name       string
	fast, slow arith.Format
}{
	{"posit16e1", arith.FastPosit(posit.Posit16e1), arith.Posit(posit.Posit16e1)},
	{"posit16e2", arith.FastPosit(posit.Posit16e2), arith.Posit(posit.Posit16e2)},
	{"posit32e2", arith.FastPosit(posit.Posit32e2), arith.Posit(posit.Posit32e2)},
	{"posit32e3", arith.FastPosit(posit.Posit32e3), arith.Posit(posit.Posit32e3)},
	{"posit8e0", arith.FastPosit(posit.Posit8e0), arith.Posit(posit.Posit8e0)},
	{"float16", arith.FastMini(minifloat.Float16, "Float16"), arith.Mini(minifloat.Float16, "Float16")},
	{"bfloat16", arith.FastMini(minifloat.BFloat16, "BFloat16"), arith.Mini(minifloat.BFloat16, "BFloat16")},
	// Too wide for FastMini, which falls back to the reference.
	{"binary32", arith.FastMini(binary32, "binary32"), arith.Mini(binary32, "binary32")},
}

var binary32 = minifloat.MustNew(8, 23)

// TestEngineSelection pins the implementation and the identity of
// every registered format: a fast format, with an inline table, for
// every format but the native float64 and float32, PositConfig for the
// posit names, MiniConfig for the IEEE small formats. Shadow's
// reference engine, scaling.MuFor's μ and /v1/convert's encodings all
// read these accessors.
func TestEngineSelection(t *testing.T) {
	widths := map[string]int{"float64": 64, "float32": 32, "float16": 16, "bfloat16": 16, "fp8e5m2": 8, "fp8e4m3": 8}
	minis := map[string]bool{"float16": true, "bfloat16": true, "fp8e5m2": true, "fp8e4m3": true}
	for _, name := range arith.Names() {
		f := arith.MustByName(name)
		var n, es int
		_, err := fmt.Sscanf(name, "posit%des%d", &n, &es)
		isPosit := err == nil
		if !isPosit {
			var ok bool
			if n, ok = widths[name]; !ok {
				t.Fatalf("%s: no expected width", name)
			}
		}
		if _, ok := arith.TablesOf(f); ok != (isPosit || minis[name]) {
			t.Errorf("%s: TablesOf ok = %v", name, ok)
		}
		c, ok := arith.PositConfig(f)
		if ok != isPosit || isPosit && (c.N() != n || c.ES() != es) {
			t.Errorf("%s: PositConfig = %v, %v", name, c, ok)
		}
		m, ok := arith.MiniConfig(f)
		if ok != minis[name] || ok && m.Width() != n {
			t.Errorf("%s: MiniConfig ok = %v, width %d", name, ok, m.Width())
		}
	}
	// implPairs checks binary32's results against the reference.
	if f := arith.FastMini(binary32, "binary32"); f != arith.Mini(binary32, "binary32") {
		t.Errorf("FastMini(binary32) = %T, want the reference Mini", f)
	}
}

// sameValue compares results across implementations: NaN matches NaN,
// zeros match by value (posit sign-of-zero is normalized to +0 in both;
// IEEE keeps signs, compared by bits).
func sameValue(a, b float64, ieee bool) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if ieee {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return a == b
}

// interestingValues yields a boundary-heavy operand set for a format
// plus a deterministic pseudo-random spread.
func interestingValues(f arith.Format, extra int) []float64 {
	vals := []float64{
		0, 1, -1, 2, 0.5, 3, 1.0 / 3.0, -7,
		f.MaxValue(), -f.MaxValue(), f.MaxValue() / 2,
		1e-5, 1e5, math.Pi, -math.E,
	}
	// Near-one neighborhood where ties concentrate.
	for i := -4; i <= 4; i++ {
		vals = append(vals, 1+float64(i)*f.Eps())
	}
	// Powers of two across the dynamic range.
	for s := -130; s <= 130; s += 7 {
		vals = append(vals, math.Ldexp(1, s))
	}
	x := uint64(0xDEADBEEFCAFE1234)
	for i := 0; i < extra; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Map to a wide log-uniform value.
		e := int(x%240) - 120
		m := 1 + float64(x>>40)/float64(1<<24)
		v := math.Ldexp(m, e)
		if x&(1<<20) != 0 {
			v = -v
		}
		vals = append(vals, v)
	}
	// Round everything through the format so operands are format values.
	out := make([]float64, 0, len(vals))
	for _, v := range vals {
		out = append(out, f.ToFloat64(f.FromFloat64(v)))
	}
	return out
}

func TestFastMatchesSlowBinaryOps(t *testing.T) {
	extra := 120
	if testing.Short() {
		extra = 30
	}
	for _, pair := range implPairs {
		_, isPosit := arith.PositConfig(pair.fast)
		vals := interestingValues(pair.slow, extra)
		for _, x := range vals {
			for _, y := range vals {
				fa := pair.fast.ToFloat64(pair.fast.Add(pair.fast.FromFloat64(x), pair.fast.FromFloat64(y)))
				sa := pair.slow.ToFloat64(pair.slow.Add(pair.slow.FromFloat64(x), pair.slow.FromFloat64(y)))
				if !sameValue(fa, sa, !isPosit) {
					t.Fatalf("%s: Add(%g,%g) fast=%g slow=%g", pair.name, x, y, fa, sa)
				}
				fm := pair.fast.ToFloat64(pair.fast.Mul(pair.fast.FromFloat64(x), pair.fast.FromFloat64(y)))
				sm := pair.slow.ToFloat64(pair.slow.Mul(pair.slow.FromFloat64(x), pair.slow.FromFloat64(y)))
				if !sameValue(fm, sm, !isPosit) {
					t.Fatalf("%s: Mul(%g,%g) fast=%g slow=%g", pair.name, x, y, fm, sm)
				}
				fd := pair.fast.ToFloat64(pair.fast.Div(pair.fast.FromFloat64(x), pair.fast.FromFloat64(y)))
				sd := pair.slow.ToFloat64(pair.slow.Div(pair.slow.FromFloat64(x), pair.slow.FromFloat64(y)))
				if !sameValue(fd, sd, !isPosit) {
					t.Fatalf("%s: Div(%g,%g) fast=%g slow=%g", pair.name, x, y, fd, sd)
				}
				fs := pair.fast.ToFloat64(pair.fast.Sub(pair.fast.FromFloat64(x), pair.fast.FromFloat64(y)))
				ss := pair.slow.ToFloat64(pair.slow.Sub(pair.slow.FromFloat64(x), pair.slow.FromFloat64(y)))
				if !sameValue(fs, ss, !isPosit) {
					t.Fatalf("%s: Sub(%g,%g) fast=%g slow=%g", pair.name, x, y, fs, ss)
				}
			}
		}
	}
}

func TestFastMatchesSlowUnary(t *testing.T) {
	for _, pair := range implPairs {
		_, isPosit := arith.PositConfig(pair.fast)
		for _, x := range interestingValues(pair.slow, 400) {
			fq := pair.fast.ToFloat64(pair.fast.Sqrt(pair.fast.FromFloat64(x)))
			sq := pair.slow.ToFloat64(pair.slow.Sqrt(pair.slow.FromFloat64(x)))
			if !sameValue(fq, sq, !isPosit) {
				t.Fatalf("%s: Sqrt(%g) fast=%g slow=%g", pair.name, x, fq, sq)
			}
			fn := pair.fast.ToFloat64(pair.fast.Neg(pair.fast.FromFloat64(x)))
			sn := pair.slow.ToFloat64(pair.slow.Neg(pair.slow.FromFloat64(x)))
			if !sameValue(fn, sn, !isPosit) {
				t.Fatalf("%s: Neg(%g) fast=%g slow=%g", pair.name, x, fn, sn)
			}
		}
	}
}

// Exhaustive conversion agreement for the 16-bit formats: every posit16
// pattern decodes and re-encodes identically through both paths, and a
// dense sweep of float64s rounds identically.
func TestFastConversionExhaustive16(t *testing.T) {
	for _, cfg := range []posit.Config{posit.Posit16e1, posit.Posit16e2} {
		fast := arith.FastPosit(cfg)
		for pat := uint64(0); pat < 1<<16; pat++ {
			p := posit.Bits(pat)
			if cfg.IsNaR(p) {
				continue
			}
			v := cfg.ToFloat64(p)
			// The fast format must treat every exact posit value as a
			// fixed point of rounding.
			got := fast.ToFloat64(fast.FromFloat64(v))
			if got != v {
				t.Fatalf("%v: value %g not a fixed point (got %g)", cfg, v, got)
			}
		}
	}
	// Dense log sweep compared against the slow rounder.
	for _, pair := range implPairs {
		_, isPosit := arith.PositConfig(pair.fast)
		for e := -140; e <= 140; e++ {
			for m := 0; m < 8; m++ {
				v := math.Ldexp(1+float64(m)/7.9, e)
				fg := pair.fast.ToFloat64(pair.fast.FromFloat64(v))
				sg := pair.slow.ToFloat64(pair.slow.FromFloat64(v))
				if !sameValue(fg, sg, !isPosit) {
					t.Fatalf("%s: FromFloat64(%g) fast=%g slow=%g", pair.name, v, fg, sg)
				}
			}
		}
	}
}

// Midpoint inputs are the adversarial case for the fast rounder: they
// sit exactly on rounding boundaries.
func TestFastConversionMidpoints(t *testing.T) {
	for _, cfg := range []posit.Config{posit.Posit16e2, posit.Posit32e2} {
		fast := arith.FastPosit(cfg)
		slow := arith.Posit(cfg)
		// Walk patterns near regime transitions and sample midpoints.
		for _, base := range []posit.Bits{
			cfg.One(), cfg.FromFloat64(2), cfg.FromFloat64(1024),
			cfg.FromFloat64(math.Ldexp(1, 24)), cfg.FromFloat64(math.Ldexp(1, -24)),
			cfg.MinPos(), cfg.Prev(cfg.MaxPos()),
		} {
			for off := -3; off <= 3; off++ {
				p := posit.Bits((uint64(base) + uint64(off)) & (1<<uint(cfg.N()) - 1))
				if cfg.IsNaR(p) || cfg.IsZero(p) || p == cfg.MaxPos() {
					continue
				}
				lo, hi := cfg.ToFloat64(p), cfg.ToFloat64(cfg.Next(p))
				mid := (lo + hi) / 2 // arithmetic mean, often near the pattern midpoint
				for _, v := range []float64{mid, math.Nextafter(mid, lo), math.Nextafter(mid, hi)} {
					fg := fast.ToFloat64(fast.FromFloat64(v))
					sg := slow.ToFloat64(slow.FromFloat64(v))
					if fg != sg {
						t.Fatalf("%v: FromFloat64(%.17g) fast=%g slow=%g", cfg, v, fg, sg)
					}
				}
			}
		}
	}
}
