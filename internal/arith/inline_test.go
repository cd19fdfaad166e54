package arith_test

import (
	"math"
	"math/bits"
	"testing"

	"positlab/internal/arith"
)

// TestInlineEveryBinade probes the inline rounding step of every fast
// format in every float64 binade, at both signs: the binade's first and
// last floats and their neighbors, 1.5·2^e ±1 ulp, random mantissas,
// and rounding boundaries ±1 ulp (refCut) — every cut of a format of at
// most 16 bits, and in every format the cut above each random probe.
// Exactly on a cut the step must leave the value to the off path, which
// knows the exact result's side; everywhere else it must round, and
// equal the integer pipeline's FromFloat64. Only NaN, the infinities, a
// posit's zero and an IEEE format's top binade may leave the step off a
// cut.
func TestInlineEveryBinade(t *testing.T) {
	fasts, refs := refFormats()
	for i, f := range fasts {
		ref := refs[i]
		t.Run(f.Name(), func(t *testing.T) {
			want := func(a uint64) uint64 {
				return math.Float64bits(ref.ToFloat64(ref.FromFloat64(math.Float64frombits(a))))
			}
			top := uint64(0) // an IEEE format's top binade, biased
			if m, ok := arith.MiniConfig(f); ok {
				top = uint64(m.Emax() + 1023)
			}
			var cuts []uint64
			if refMaxPat(ref) < 1<<16 {
				cuts = refCuts(ref)
			}
			// cutAbove returns the cut above the pattern a rounds to,
			// or 0 when a rounds to an IEEE infinity.
			cutAbove := func(a uint64) uint64 {
				p := uint64(ref.FromFloat64(math.Float64frombits(a)))
				if p > refMaxPat(ref) {
					return 0
				}
				return refCut(ref, p+1)
			}
			probed := 0
			check := func(a uint64) {
				if a >= 2047<<52 {
					return // infinities and NaN, checked below
				}
				probed++
				// A cut has at most 31 significand bits (21 trailing
				// zeros in its mantissa), so a float64 next to one is
				// none, and such an a is on a cut exactly when its
				// neighbors round apart.
				onCut := bits.TrailingZeros64(a|1<<52) >= 21 && a > 1 && want(a-1) != want(a+1)
				for _, sign := range []uint64{0, 1 << 63} {
					b := a | sign
					r, ok := arith.InlineRoundForTest(f, b)
					switch {
					case onCut && ok:
						t.Fatalf("%#x (%g) lies on a cut, but the inline step rounds it to %g",
							b, math.Float64frombits(b), math.Float64frombits(r))
					case onCut:
					case !ok:
						if a>>52 == top && top != 0 || a == 0 && top == 0 {
							continue
						}
						t.Fatalf("%#x (%g) leaves the inline step off a cut", b, math.Float64frombits(b))
					case r != want(b):
						t.Fatalf("inline step rounds %#x (%g) to %g, pipeline %g", b, math.Float64frombits(b),
							math.Float64frombits(r), math.Float64frombits(want(b)))
					}
				}
			}
			for _, c := range cuts {
				if c > 0 {
					check(c - 1)
					check(c)
					check(c + 1)
				}
			}
			const m52 = 1<<52 - 1
			rng := uint64(0x9e3779b97f4a7c15)
			for e := uint64(0); e < 2047; e++ {
				first, mid := e<<52, e<<52|1<<51
				for _, a := range []uint64{first, first + 1, first | m52, first | m52 - 1, mid - 1, mid, mid + 1} {
					check(a)
				}
				for range 6 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					a := first | rng&m52
					check(a)
					if c := cutAbove(a); c != 0 {
						check(c - 1)
						check(c)
						check(c + 1)
					}
				}
			}
			for _, b := range []uint64{0x7ff << 52, 0xfff << 52, 0x7ff8 << 48} {
				if _, ok := arith.InlineRoundForTest(f, b); ok {
					t.Fatalf("%#x (%g) rounds inline", b, math.Float64frombits(b))
				}
			}
			t.Logf("%d magnitudes probed", probed)
		})
	}
}
