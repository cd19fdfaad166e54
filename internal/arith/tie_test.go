package arith_test

import (
	"math"
	"testing"

	"positlab/internal/arith"
)

// The sum sites of the table engine (Add/Sub and the Dot, Axpy,
// MulAdd, TrailingUpdate and MatVec kernels) settle a float64 sum that
// lands exactly on a rounding boundary inline, by the TwoSum residual;
// a quotient there (Div, DivKernel) goes to the engine, which rounds it
// as an exact value, since only an exact quotient lands on a boundary.
// These tests aim operand pairs at rounding boundaries in every binade
// of every tabled format and check each site against the integer
// pipeline.

// boundaryPairs returns operand pairs (v, h) of format values aimed at
// the rounding boundaries B next to positive finite patterns v: h = B-v
// puts the sum exactly on B — a genuine tie, since the sum of two
// format values is exact in float64 — and the format values next to h
// put it just below and just above B. Each pair also appears negated.
// The patterns taken are every one at either end of its binade (all of
// them in the region scales) and every seventh in between, which meets
// every kept-bit parity and position class without all 2^16.
func boundaryPairs(tab *arith.Tables) (vs, hs []float64) {
	cut := arith.CutsForTest(tab)
	maxPat := len(cut) - 2
	// exact returns the positive pattern of magnitude m, if m is a
	// format value.
	exact := func(m float64) (int, bool) {
		q := int(tab.Encode(m))
		return q, q >= 1 && q <= maxPat && tab.Decode(uint16(q)) == m
	}
	binade := func(p int) uint64 { return math.Float64bits(tab.Decode(uint16(p))) >> 52 }
	for p := 1; p <= maxPat; p++ {
		if p%7 != 0 && binade(p-1) == binade(p) && binade(p) == binade(p+1) {
			continue
		}
		v := tab.Decode(uint16(p))
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
				hm := math.Copysign(tab.Decode(uint16(hq)), h)
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
	for _, tf := range tabbedFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			tab, _ := arith.TablesOf(tf.fast)
			vs, hs := boundaryPairs(tab)
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
// see one; they must take the side from the TwoSum residual. The exact
// sum rounds like every real strictly between s and its float64
// neighbor on d's side, so the pipeline's rounding of that neighbor is
// the oracle.
func TestSumResidualSide(t *testing.T) {
	for _, tf := range tabbedFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			tab, _ := arith.TablesOf(tf.fast)
			pv, ph := boundaryPairs(tab)
			var vs, hs, want []float64
			for i := range pv {
				s := pv[i] + ph[i]
				quarter := (math.Nextafter(math.Abs(s), math.Inf(1)) - math.Abs(s)) / 4
				for _, d := range []float64{-quarter, quarter} {
					hd := ph[i] + d
					if hd-ph[i] != d || pv[i]+hd != s {
						continue // h+d not exact, or the sum leaves s
					}
					vs = append(vs, pv[i])
					hs = append(hs, hd)
					w := tf.slow.FromFloat64(math.Nextafter(s, math.Copysign(math.Inf(1), d)))
					want = append(want, tf.slow.ToFloat64(w))
				}
			}
			if len(vs) == 0 {
				t.Fatal("no residual cases")
			}
			checkAddSites(t, tf.fast, raw(vs), raw(hs), want)
		})
	}
}

// quotientTies returns, for every power of two y = 2^k with |k| <=
// maxK that the format holds, the numerators x = ±B·y that the format
// holds too, over every rounding boundary B. x/y is B exactly in
// float64, with a zero FMA remainder: a genuine tie.
func quotientTies(tab *arith.Tables, maxK int) (ys []float64, xs [][]float64) {
	held := func(v float64) bool { return tab.Decode(tab.Encode(v)) == v }
	for k := -maxK; k <= maxK; k++ {
		y := math.Ldexp(1, k)
		if !held(y) {
			continue
		}
		var row []float64
		for _, c := range arith.CutsForTest(tab)[1:] {
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
// which the engine must round to the even pattern. Divisors run over
// 2^-32..2^32, which finds every such tie of posit16es0, posit16es1
// and float16 (about 1 s in all).
func TestQuotientBoundaryTies(t *testing.T) {
	for _, tf := range tabbedFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			tab, _ := arith.TablesOf(tf.fast)
			f := tf.fast
			bk := arith.BulkOf(f)
			ys, xs := quotientTies(tab, 32)
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

// TestQuotientAndRootCutsExact enumerates, where it can, why the table
// engine may round a quotient or root on a rounding boundary as an
// exact value: a float64 root of any value of a tabled format, and a
// float64 quotient of any two values of an 8-bit format, that lands
// exactly on a boundary has a zero FMA remainder, so it is exact. (In
// today's tabled formats no root lands on one at all; the test logs
// the count.)
func TestQuotientAndRootCutsExact(t *testing.T) {
	var roots, quotients int
	for _, tf := range tabbedFormats(t) {
		tab, _ := arith.TablesOf(tf.fast)
		onCut := map[uint64]bool{}
		for _, c := range arith.CutsForTest(tab)[1:] {
			if c < 0x7ff<<52 {
				onCut[c] = true
			}
		}
		hit := func(r float64) bool { return onCut[math.Float64bits(r)&^(1<<63)] }
		n := 1 << tab.Width()
		for p := 0; p < n; p++ {
			x := tab.Decode(uint16(p))
			if r := math.Sqrt(x); hit(r) {
				roots++
				if math.FMA(r, r, -x) != 0 {
					t.Fatalf("%s: √%g = %g lies on a cut with a nonzero remainder", tf.name, x, r)
				}
			}
			if tab.Width() > 8 {
				continue
			}
			for q := 0; q < n; q++ {
				y := tab.Decode(uint16(q))
				if r := x / y; hit(r) {
					quotients++
					if math.FMA(r, y, -x) != 0 {
						t.Fatalf("%s: %g/%g = %g lies on a cut with a nonzero remainder", tf.name, x, y, r)
					}
				}
			}
		}
	}
	if quotients == 0 {
		t.Fatal("no quotient on a cut")
	}
	t.Logf("%d roots and %d quotients on a cut, every one exact", roots, quotients)
}
