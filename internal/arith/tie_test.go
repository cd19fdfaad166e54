package arith_test

import (
	"math"
	"testing"

	"positlab/internal/arith"
)

// The sum sites of a fast format (Add/Sub and the Dot, Axpy, MulAdd,
// TrailingUpdate and MatVec kernels) settle a float64 sum that lands
// exactly on a rounding boundary with a zero TwoSum residual inline,
// and give any other such sum to the reference; a quotient there (Div,
// DivKernel) leaves the inline step too, and in a format of at most 16
// bits it is exact, a genuine tie. These tests aim operand pairs at the
// rounding boundaries (refCut) in every binade of every fast format of
// at most 16 bits and check each site against the integer pipeline.

// boundaryPairs returns operand pairs (v, h) of format values aimed at
// the rounding boundaries B next to positive finite patterns v: h = B-v
// puts the sum exactly on B — a genuine tie, since the sum of two
// format values is exact in float64 — and the format values next to h
// put it just below and just above B. Each pair also appears negated.
// The patterns taken are every one at either end of its binade (all of
// them in the region scales) and every seventh in between, which meets
// every kept-bit parity and position class without all 2^16.
func boundaryPairs(ref arith.Format) (vs, hs []float64) {
	cut := refCuts(ref)
	maxPat := len(cut) - 2
	value := func(p int) float64 { return ref.ToFloat64(arith.Num(p)) }
	// exact returns the positive pattern of magnitude m, if m is a
	// format value.
	exact := func(m float64) (int, bool) {
		q := int(ref.FromFloat64(m))
		return q, q >= 1 && q <= maxPat && value(q) == m
	}
	binade := func(p int) uint64 { return math.Float64bits(value(p)) >> 52 }
	for p := 1; p <= maxPat; p++ {
		if p%7 != 0 && binade(p-1) == binade(p) && binade(p) == binade(p+1) {
			continue
		}
		v := value(p)
		for _, c := range []int{p, p + 1} {
			b := math.Float64frombits(cut[c])
			if math.IsInf(b, 0) {
				continue // posit overflow threshold: no boundary
			}
			h := b - v
			q, ok := exact(math.Abs(h))
			if !ok {
				continue
			}
			for _, hq := range []int{q - 1, q, q + 1} {
				if hq < 1 || hq > maxPat {
					continue
				}
				hm := math.Copysign(value(hq), h)
				vs = append(vs, v, -v)
				hs = append(hs, hm, -hm)
			}
		}
	}
	return vs, hs
}

// raw returns the value-domain operands of the fast formats as they
// are, without rounding: a raw term that is not a format value reaches
// the sum unrounded wherever a kernel adds its operand directly.
func raw(xs []float64) []arith.Num {
	out := make([]arith.Num, len(xs))
	for i, x := range xs {
		out[i] = arith.Num(math.Float64bits(x))
	}
	return out
}

// checkAddSites checks, for every i, that each site adding v[i] and
// h[i] directly — Add, Sub, and the AxpyKernel, MulAddKernel and
// TrailingUpdateKernel addends (v[i] enters as the unit-scaled
// product, h[i] as the addend) — gives want[i].
func checkAddSites(t *testing.T, f arith.Format, v, h []arith.Num, want []float64) {
	t.Helper()
	bk := arith.BulkOf(f)
	one := f.One()
	check := func(site string, i int, got arith.Num) {
		t.Helper()
		if g := f.ToFloat64(got); math.Float64bits(g) != math.Float64bits(want[i]) {
			t.Fatalf("%s(%g, %g) = %g (bits %x), pipeline %g (bits %x)", site,
				f.ToFloat64(v[i]), f.ToFloat64(h[i]), g, math.Float64bits(g), want[i], math.Float64bits(want[i]))
		}
	}
	for i := range v {
		check("Add", i, f.Add(v[i], h[i]))
		check("Add", i, f.Add(h[i], v[i]))
		check("Sub", i, f.Sub(v[i], f.Neg(h[i])))
	}
	y := cloneNums(h)
	bk.AxpyKernel(one, v, y)
	dst := make([]arith.Num, len(v))
	bk.MulAddKernel(one, v, h, dst)
	w := cloneNums(h)
	nv := make([]arith.Num, len(v))
	for i := range v {
		nv[i] = f.Neg(v[i])
	}
	bk.TrailingUpdateKernel(f.Neg(one), nv, w)
	for i := range v {
		check("AxpyKernel", i, y[i])
		check("MulAddKernel", i, dst[i])
		check("TrailingUpdateKernel", i, w[i])
	}
}

// TestSumBoundaryTies drives the boundary pairs through every sum site
// and compares with the pipeline's Add: on the boundary the sites must
// round a genuine tie to the even pattern, and beside it round to the
// near side. DotKernel and MatVecKernel see each pair as a two-term
// reduction against ones, so the running sum meets the same boundary.
func TestSumBoundaryTies(t *testing.T) {
	for _, tf := range narrowFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			vs, hs := boundaryPairs(tf.slow)
			if len(vs) == 0 {
				t.Fatal("no boundary pairs")
			}
			want := make([]float64, len(vs))
			for i := range vs {
				want[i] = tf.slow.ToFloat64(tf.slow.Add(tf.slow.FromFloat64(vs[i]), tf.slow.FromFloat64(hs[i])))
			}
			f := tf.fast
			v, h := raw(vs), raw(hs)
			checkAddSites(t, f, v, h, want)

			bk := arith.BulkOf(f)
			ones := []arith.Num{f.One(), f.One()}
			rowPtr := make([]int, len(v)+1)
			col := make([]int, 0, 2*len(v))
			val := make([]arith.Num, 0, 2*len(v))
			for i := range v {
				if got := f.ToFloat64(bk.DotKernel([]arith.Num{v[i], h[i]}, ones)); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("DotKernel(%g, %g) = %g, pipeline %g", vs[i], hs[i], got, want[i])
				}
				col = append(col, 0, 1)
				val = append(val, v[i], h[i])
				rowPtr[i+1] = len(col)
			}
			mv := make([]arith.Num, len(v))
			bk.MatVecKernel(rowPtr, col, val, ones, mv)
			for i := range mv {
				if got := f.ToFloat64(mv[i]); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("MatVecKernel row (%g, %g) = %g, pipeline %g", vs[i], hs[i], got, want[i])
				}
			}
		})
	}
}

// TestSumResidualSide adds a tiny raw term d = ±ulp(s)/4 to the addend
// of every boundary pair (s = v+h), so the float64 sum still lands on
// s while the exact sum lies just below or above it. Only an addend
// that is not a format value can do this (for two format values the
// sum is exact there), and only the sites that add an operand directly
// see one. A nonzero TwoSum residual does not settle such a sum
// inline: every site must give the pipeline's Add of the operands as
// the format holds them (the raw addend rounded to its format value),
// as a wide posit's sites do (TestWideSumTies).
//
// Where the format holds a value x = −u·(1+2^-k), u = ±ulp(s), the
// raw addend is also put one float64 past s, at s+u, which the format
// holds as the pattern beyond the boundary, and x brings the float64
// sum back onto s: the held operands' sum then rounds to that pattern,
// whichever pattern is even.
func TestSumResidualSide(t *testing.T) {
	beyond := 0
	for _, tf := range narrowFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			pv, ph := boundaryPairs(tf.slow)
			var vs, hs, want []float64
			add := func(v, h float64) {
				vs, hs = append(vs, v), append(hs, h)
				w := tf.slow.Add(tf.slow.FromFloat64(v), tf.slow.FromFloat64(h))
				want = append(want, tf.slow.ToFloat64(w))
			}
			held := func(v float64) bool { return tf.slow.ToFloat64(tf.slow.FromFloat64(v)) == v }
			seen := map[float64]bool{}
			for i := range pv {
				s := pv[i] + ph[i]
				quarter := (math.Nextafter(math.Abs(s), math.Inf(1)) - math.Abs(s)) / 4
				for _, d := range []float64{-quarter, quarter} {
					hd := ph[i] + d
					if hd-ph[i] != d || pv[i]+hd != s {
						continue // h+d not exact, or the sum leaves s
					}
					add(pv[i], hd)
				}
				if seen[s] {
					continue
				}
				seen[s] = true
				u := math.Copysign(4*quarter, s)
				for k := 2; k <= 8; k++ {
					if x := -u * (1 + math.Ldexp(1, -k)); held(x) && x+(s+u) == s {
						add(x, s+u)
						beyond++
						break
					}
				}
			}
			if len(vs) == 0 {
				t.Fatal("no residual cases")
			}
			checkAddSites(t, tf.fast, raw(vs), raw(hs), want)
		})
	}
	if beyond == 0 {
		t.Fatal("no raw addend beyond a boundary")
	}
	t.Logf("%d raw addends beyond a boundary", beyond)
}

// quotientTies returns, for every power of two y = 2^k with |k| <=
// maxK that the format holds, the numerators x = ±B·y that the format
// holds too, over every rounding boundary B. x/y is B exactly in
// float64, with a zero FMA remainder: a genuine tie.
func quotientTies(ref arith.Format, maxK int) (ys []float64, xs [][]float64) {
	held := func(v float64) bool { return ref.ToFloat64(ref.FromFloat64(v)) == v }
	cuts := refCuts(ref)[1:]
	for k := -maxK; k <= maxK; k++ {
		y := math.Ldexp(1, k)
		if !held(y) {
			continue
		}
		var row []float64
		for _, c := range cuts {
			b := math.Float64frombits(c)
			if x := b * y; !math.IsInf(b, 0) && held(x) {
				row = append(row, x, -x)
			}
		}
		if len(row) > 0 {
			ys = append(ys, y)
			xs = append(xs, row)
		}
	}
	return ys, xs
}

// TestQuotientBoundaryTies drives quotients that land exactly on a
// rounding boundary through Div and DivKernel and compares with the
// pipeline's Div: each is a genuine tie, with a zero FMA remainder,
// which the off path must round to the even pattern. Divisors run over
// 2^-32..2^32, which finds every such tie of posit16es0, posit16es1
// and float16 (about 1 s in all).
func TestQuotientBoundaryTies(t *testing.T) {
	for _, tf := range narrowFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			f := tf.fast
			bk := arith.BulkOf(f)
			ys, xs := quotientTies(tf.slow, 32)
			if len(ys) == 0 {
				t.Fatal("no quotient ties")
			}
			check := func(site string, x, y float64, got arith.Num, want float64) {
				if g := f.ToFloat64(got); math.Float64bits(g) != math.Float64bits(want) {
					t.Fatalf("%s(%g, %g) = %g (bits %x), pipeline %g (bits %x)",
						site, x, y, g, math.Float64bits(g), want, math.Float64bits(want))
				}
			}
			for j, y := range ys {
				row := xs[j]
				fy, sy := arith.Num(math.Float64bits(y)), tf.slow.FromFloat64(y)
				kern := raw(row)
				bk.DivKernel(fy, kern)
				for i, x := range row {
					want := tf.slow.ToFloat64(tf.slow.Div(tf.slow.FromFloat64(x), sy))
					check("Div", x, y, f.Div(arith.Num(math.Float64bits(x)), fy), want)
					check("DivKernel", x, y, kern[i], want)
				}
			}
		})
	}
}
