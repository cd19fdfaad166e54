package arith_test

import (
	"math"
	"testing"

	"positlab/internal/arith"
)

var allFormats = []arith.Format{
	arith.Float64, arith.Float32, arith.Float16, arith.BFloat16,
	arith.Posit16e1, arith.Posit16e2, arith.Posit32e2, arith.Posit32e3,
}

func TestBasicAlgebraAllFormats(t *testing.T) {
	for _, f := range allFormats {
		two := f.FromFloat64(2)
		three := f.FromFloat64(3)
		if got := f.ToFloat64(f.Add(two, three)); got != 5 {
			t.Errorf("%s: 2+3 = %g", f.Name(), got)
		}
		if got := f.ToFloat64(f.Mul(two, three)); got != 6 {
			t.Errorf("%s: 2*3 = %g", f.Name(), got)
		}
		if got := f.ToFloat64(f.Sub(two, three)); got != -1 {
			t.Errorf("%s: 2-3 = %g", f.Name(), got)
		}
		if got := f.ToFloat64(f.Div(three, two)); got != 1.5 {
			t.Errorf("%s: 3/2 = %g", f.Name(), got)
		}
		if got := f.ToFloat64(f.Sqrt(f.FromFloat64(9))); got != 3 {
			t.Errorf("%s: sqrt(9) = %g", f.Name(), got)
		}
		if got := f.ToFloat64(f.Neg(two)); got != -2 {
			t.Errorf("%s: -2 = %g", f.Name(), got)
		}
		if !f.IsZero(f.Zero()) || f.ToFloat64(f.One()) != 1 {
			t.Errorf("%s: zero/one wrong", f.Name())
		}
		if !f.Less(two, three) || f.Less(three, two) {
			t.Errorf("%s: ordering wrong", f.Name())
		}
		if f.Bad(two) {
			t.Errorf("%s: 2 reported exceptional", f.Name())
		}
		if !f.Bad(f.Div(f.One(), f.Zero())) {
			t.Errorf("%s: 1/0 not exceptional", f.Name())
		}
		if f.Eps() <= 0 || f.Eps() >= 1 {
			t.Errorf("%s: eps = %g out of range", f.Name(), f.Eps())
		}
		if f.MaxValue() <= 1 {
			t.Errorf("%s: MaxValue = %g", f.Name(), f.MaxValue())
		}
	}
}

func TestEpsValues(t *testing.T) {
	cases := []struct {
		f    arith.Format
		want float64
	}{
		{arith.Float64, 0x1p-53},
		{arith.Float32, 0x1p-24},
		{arith.Float16, 0x1p-11},
		// posit(32,2) near one: 27 fraction bits -> eps 2^-28 = 3.73e-9 (§II-B).
		{arith.Posit32e2, 0x1p-28},
		// posit(16,2): 11 frac bits near 1 -> 2^-12.
		{arith.Posit16e2, 0x1p-12},
	}
	for _, tc := range cases {
		if got := tc.f.Eps(); got != tc.want {
			t.Errorf("%s eps = %g, want %g", tc.f.Name(), got, tc.want)
		}
	}
}

func TestMaxValues(t *testing.T) {
	if got := arith.Float16.MaxValue(); got != 65504 {
		t.Errorf("Float16 max = %g", got)
	}
	// posit(16,2) maxpos = 2^56.
	if got := arith.Posit16e2.MaxValue(); got != math.Ldexp(1, 56) {
		t.Errorf("posit(16,2) max = %g, want 2^56", got)
	}
	// posit(32,2) maxpos = 2^120.
	if got := arith.Posit32e2.MaxValue(); got != math.Ldexp(1, 120) {
		t.Errorf("posit(32,2) max = %g, want 2^120", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"float64", "Float32", "float16", "bfloat16", "posit32es2", "Posit(32,2)", "posit(16, 1)"} {
		if _, err := arith.ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := arith.ByName("float128"); err == nil {
		t.Error("ByName(float128) must fail")
	}
	if f := arith.MustByName("posit(32,2)"); f.Name() != "Posit(32,2)" {
		t.Errorf("alias resolved to %s", f.Name())
	}
}

// TestByNameRoundTrip: every registered format's display name resolves
// back to the same format, as shadow.Diagnose resolves its format.
func TestByNameRoundTrip(t *testing.T) {
	for _, name := range arith.Names() {
		f := arith.MustByName(name)
		if g, err := arith.ByName(f.Name()); err != nil || g != f {
			t.Errorf("%s: ByName(%q) = %v, %v; want the registered format", name, f.Name(), g, err)
		}
	}
}

func TestConvertAndClamp(t *testing.T) {
	// posit32 value 1e10 converts to Float16 as clamped max.
	p := arith.Posit32e2.FromFloat64(1e10)
	got := arith.Convert(arith.Posit32e2, arith.Float16, p)
	if !arith.Float16.Bad(got) {
		t.Error("unclamped conversion of 1e10 to Float16 should overflow to Inf")
	}
	clamped := arith.FromFloat64Clamped(arith.Float16, 1e10)
	if v := arith.Float16.ToFloat64(clamped); v != 65504 {
		t.Errorf("clamped conversion = %g, want 65504", v)
	}
	neg := arith.FromFloat64Clamped(arith.Float16, math.Inf(-1))
	if v := arith.Float16.ToFloat64(neg); v != -65504 {
		t.Errorf("clamped -Inf = %g, want -65504", v)
	}
	// Posit clamps natively: no Bad value from huge input.
	if arith.Posit16e2.Bad(arith.Posit16e2.FromFloat64(1e300)) {
		t.Error("posit conversion of 1e300 must clamp to maxpos, not NaR")
	}
	// NaN stays exceptional under clamping.
	if !arith.Float16.Bad(arith.FromFloat64Clamped(arith.Float16, math.NaN())) {
		t.Error("clamped NaN must remain NaN")
	}
	// Round-trip through Convert for exact values.
	x := arith.Float16.FromFloat64(0.5)
	y := arith.Convert(arith.Float16, arith.Posit16e2, x)
	if arith.Posit16e2.ToFloat64(y) != 0.5 {
		t.Error("convert 0.5 Float16->posit16 failed")
	}
}

func TestPositConfigAccessor(t *testing.T) {
	c, ok := arith.PositConfig(arith.Posit16e2)
	if !ok || c.N() != 16 || c.ES() != 2 {
		t.Error("PositConfig(posit16e2) wrong")
	}
	if _, ok := arith.PositConfig(arith.Float32); ok {
		t.Error("PositConfig(float32) must report false")
	}
}
