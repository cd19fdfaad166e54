package arith_test

import (
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/posit"
)

// The wide posits round a float64 result inline unless it lands exactly
// on a rounding boundary. A product of two 32-bit posit values needs up
// to 56 significand bits, so its float64 image can land on a boundary
// while the exact product lies above or below it — the case the inline
// path must hand on. These tests aim products, quotients, roots and
// sums at boundaries and check every wide-posit site against the
// integer pipeline.

var wideConfigs = []posit.Config{posit.Posit32e2, posit.Posit32e3}

// onBoundary reports whether |r| lies exactly on a rounding boundary of
// c: its float64 neighbors round to different posits in the integer
// pipeline.
func onBoundary(c posit.Config, r float64) bool {
	a := math.Abs(r)
	return c.FromFloat64(math.Nextafter(a, 0)) != c.FromFloat64(math.Nextafter(a, math.Inf(1)))
}

// sideOf is the sign of a residual exact−r of a positive result r: +1
// when the exact result lies above its float64 image, −1 below, 0 when
// the image is exact (a genuine tie on a boundary).
func sideOf(res float64) int {
	switch {
	case res > 0:
		return 1
	case res < 0:
		return -1
	}
	return 0
}

type widePair struct{ x, y float64 }

// spacingAtOne returns u, the spacing of c's values just above 1, and
// fb = -log2(u), the fraction bits there.
func spacingAtOne(c posit.Config) (u float64, fb int) {
	u = c.ToFloat64(c.Next(c.One())) - 1
	return u, -math.Ilogb(u)
}

// boundaryProducts returns pairs of posit values x = 1+a·u, y = 1+b·u
// (a odd) whose float64 product lands exactly on a rounding boundary,
// keyed by the side of the boundary the exact product is on. The exact
// product is 1 + (a+b)·u + ab·u². Choosing b = ±k·a⁻¹ (mod 2^fb) for
// k in {1, 2, 4} puts ab within k of a multiple of 2^fb, so the low
// term ab·u² lies a few float64 half-ulps from a multiple of u; the
// float64 product can then tie onto a multiple of u/2, which is a
// boundary when the multiple is odd. The integer pipeline decides which
// pairs hit a boundary.
func boundaryProducts(c posit.Config) map[int][]widePair {
	u, fb := spacingAtOne(c)
	mod := uint64(1) << uint(fb)
	out := map[int][]widePair{}
	for a := mod/4 + 1; a < mod/4+512; a += 2 {
		inv := a // Newton's iteration for a⁻¹ mod 2^64
		for i := 0; i < 6; i++ {
			inv *= 2 - a*inv
		}
		for _, k := range []uint64{1, 2, 4, mod - 1, mod - 2, mod - 4} {
			x, y := 1+float64(a)*u, 1+float64(k*inv&(mod-1))*u
			if r := x * y; onBoundary(c, r) {
				s := sideOf(math.FMA(x, y, -r))
				out[s] = append(out[s], widePair{x, y}, widePair{-x, y})
			}
		}
	}
	return out
}

// boundaryQuotients returns pairs (x, y) whose float64 quotient x/y
// lands exactly on a rounding boundary although the exact one does not:
// x = 1+i·u against y = 1−k·u/2 (a value of the binade below 1, whose
// spacing is u/2) and y = 2−k·u.
func boundaryQuotients(c posit.Config) []widePair {
	u, _ := spacingAtOne(c)
	var out []widePair
	for i := 0; i < 64; i++ {
		x := 1 + float64(i)*u
		for k := 1; k < 64; k++ {
			for _, y := range []float64{1 - float64(k)*u/2, 2 - float64(k)*u} {
				if r := x / y; onBoundary(c, r) && math.FMA(r, y, -x) != 0 {
					out = append(out, widePair{x, y}, widePair{-x, y})
				}
			}
		}
	}
	return out
}

// boundaryRoots returns posit values 1+k·u whose float64 square root
// lands exactly on a rounding boundary: √(1+k·u) = 1 + k·u/2 − k²u²/8 +
// …, within a float64 half-ulp of the boundary 1+k·u/2 for small odd k.
func boundaryRoots(c posit.Config) []float64 {
	u, _ := spacingAtOne(c)
	var out []float64
	for k := 1; k < 4096; k++ {
		x := 1 + float64(k)*u
		if r := math.Sqrt(x); onBoundary(c, r) && math.FMA(r, r, -x) != 0 {
			out = append(out, x)
		}
	}
	return out
}

// TestWideBoundaryProducts drives the boundary products through every
// wide-posit site that rounds a product — Mul, MulAdd, and the Dot,
// Scale, Axpy, MulAdd (plain and aliased), TrailingUpdate and MatVec
// kernels, both alone and followed by a sum — and compares each with
// the integer pipeline. It requires products on both sides of a
// boundary in each format.
func TestWideBoundaryProducts(t *testing.T) {
	for _, c := range wideConfigs {
		t.Run(c.String(), func(t *testing.T) {
			cases := boundaryProducts(c)
			if len(cases[1]) == 0 || len(cases[-1]) == 0 {
				t.Fatalf("boundary products: %d above, %d below; want both sides", len(cases[1]), len(cases[-1]))
			}
			f, slow := arith.FastPosit(c), arith.Posit(c)
			for _, s := range []int{1, -1, 0} {
				for _, p := range cases[s] {
					checkProductSites(t, f, slow, p.x, p.y)
				}
			}
		})
	}
}

// checkProductSites checks every product site on x·y, with the addends
// 0 and −1 where the site adds.
func checkProductSites(t *testing.T, f, slow arith.Format, xv, yv float64) {
	t.Helper()
	bk := arith.BulkOf(f)
	x, y := f.FromFloat64(xv), f.FromFloat64(yv)
	sx, sy := slow.FromFloat64(xv), slow.FromFloat64(yv)
	sm := slow.Mul(sx, sy)
	check := func(site string, c float64, got arith.Num, want arith.Num) {
		t.Helper()
		g, w := f.ToFloat64(got), slow.ToFloat64(want)
		if g != w {
			t.Fatalf("%s x=%.17g y=%.17g c=%g: %.17g, pipeline %.17g", site, xv, yv, c, g, w)
		}
	}
	check("Mul", 0, f.Mul(x, y), sm)
	check("Mul(y,x)", 0, f.Mul(y, x), sm)
	g := []arith.Num{y}
	bk.ScaleKernel(x, g)
	check("ScaleKernel", 0, g[0], sm)
	check("DotKernel", 0, bk.DotKernel([]arith.Num{x}, []arith.Num{y}), sm)
	mv := make([]arith.Num, 1)
	bk.MatVecKernel([]int{0, 1}, []int{0}, []arith.Num{x}, []arith.Num{y}, mv)
	check("MatVecKernel", 0, mv[0], sm)

	for _, cv := range []float64{0, -1} {
		c, sc := f.FromFloat64(cv), slow.FromFloat64(cv)
		want := slow.Add(sm, sc)
		check("MulAdd", cv, f.MulAdd(x, y, c), want)
		check("DotKernel", cv, bk.DotKernel([]arith.Num{f.One(), x}, []arith.Num{c, y}), want)
		bk.MatVecKernel([]int{0, 2}, []int{0, 1}, []arith.Num{f.One(), x}, []arith.Num{c, y}, mv)
		check("MatVecKernel", cv, mv[0], want)
		a := []arith.Num{c}
		bk.AxpyKernel(x, []arith.Num{y}, a)
		check("AxpyKernel", cv, a[0], want)
		d := make([]arith.Num, 1)
		bk.MulAddKernel(x, []arith.Num{y}, []arith.Num{c}, d)
		check("MulAddKernel", cv, d[0], want)
		d[0] = y
		bk.MulAddKernel(x, d, []arith.Num{c}, d)
		check("aliased MulAddKernel", cv, d[0], want)
		w := []arith.Num{c}
		bk.TrailingUpdateKernel(f.Neg(x), []arith.Num{y}, w)
		check("TrailingUpdateKernel", cv, w[0], slow.Sub(sc, sm))
	}
}

// TestWideBoundaryQuotientsAndRoots checks Div, DivKernel and Sqrt on
// results whose float64 image lands exactly on a boundary.
func TestWideBoundaryQuotientsAndRoots(t *testing.T) {
	for _, c := range wideConfigs {
		t.Run(c.String(), func(t *testing.T) {
			f, slow := arith.FastPosit(c), arith.Posit(c)
			qs, rs := boundaryQuotients(c), boundaryRoots(c)
			if len(qs) == 0 || len(rs) == 0 {
				t.Fatalf("%d boundary quotients, %d boundary roots; want some of each", len(qs), len(rs))
			}
			for _, q := range qs {
				want := slow.ToFloat64(slow.Div(slow.FromFloat64(q.x), slow.FromFloat64(q.y)))
				if got := f.ToFloat64(f.Div(f.FromFloat64(q.x), f.FromFloat64(q.y))); got != want {
					t.Fatalf("Div(%.17g, %.17g) = %.17g, pipeline %.17g", q.x, q.y, got, want)
				}
				xs := []arith.Num{f.FromFloat64(q.x)}
				arith.BulkOf(f).DivKernel(f.FromFloat64(q.y), xs)
				if got := f.ToFloat64(xs[0]); got != want {
					t.Fatalf("DivKernel(%.17g, %.17g) = %.17g, pipeline %.17g", q.x, q.y, got, want)
				}
			}
			for _, x := range rs {
				want := slow.ToFloat64(slow.Sqrt(slow.FromFloat64(x)))
				if got := f.ToFloat64(f.Sqrt(f.FromFloat64(x))); got != want {
					t.Fatalf("Sqrt(%.17g) = %.17g, pipeline %.17g", x, got, want)
				}
			}
		})
	}
}

// TestWideSumTies aims sums of two posit values exactly at rounding
// boundaries (v+h = v ± u_s/2 at scale s, a genuine tie the float64
// sum holds exactly) and beside them, in binades across the range, and
// checks every sum site (checkAddSites, MulAdd, the aliased
// MulAddKernel, DotKernel, MatVecKernel) against the integer pipeline:
// a tie goes to the even pattern.
//
// Each tie also comes with the addend moved off the grid by
// d = ±ulp(v+h)/4, so the float64 sum still lands on the boundary while
// the exact sum lies beside it and the TwoSum residual is d. Two posit
// values never sum that way, so only a raw addend reaches it. The
// wanted value is the pipeline's Add of the operands as the format
// holds them (the raw addend rounded to its posit), which every site
// must keep: a residual does not settle such a sum inline.
// DotKernel and MatVecKernel round the addend at its product, as the
// defining sequence does.
func TestWideSumTies(t *testing.T) {
	for _, c := range wideConfigs {
		t.Run(c.String(), func(t *testing.T) {
			f, slow := arith.FastPosit(c), arith.Posit(c)
			var vs, hs, want []float64
			sides := map[bool]int{} // off-grid cases by whether the exact sum lies beyond the boundary
			for _, s := range []int{-40, -17, -1, 0, 1, 5, 23, 40} {
				base := math.Ldexp(1, s)
				us := c.ToFloat64(c.Next(c.FromFloat64(base))) - base
				for i := 0; i < 6; i++ {
					v := base + float64(i)*us
					for _, h := range []float64{us / 2, -us / 2, us / 2 * 3} {
						if slow.ToFloat64(slow.FromFloat64(h)) != h || v+h-v != h {
							t.Fatalf("scale %d: addend %g not an exact posit term", s, h)
						}
						sum := v + h
						q := (math.Nextafter(sum, math.Inf(1)) - sum) / 4
						for _, hd := range []float64{h, h - q, h + q} {
							if hd != h {
								if v+hd != sum || hd-h == 0 {
									t.Fatalf("scale %d: v=%g h=%g: off-grid addend %g leaves the boundary", s, v, h, hd)
								}
								sides[hd > h]++
							}
							for _, sg := range []float64{1, -1} {
								vs = append(vs, sg*v)
								hs = append(hs, sg*hd)
								want = append(want, slow.ToFloat64(slow.Add(slow.FromFloat64(sg*v), slow.FromFloat64(sg*hd))))
							}
						}
					}
				}
			}
			if sides[true] == 0 || sides[false] == 0 {
				t.Fatalf("off-grid addends: %d beyond the boundary, %d short of it; want both", sides[true], sides[false])
			}
			v, h := raw(vs), raw(hs)
			checkAddSites(t, f, v, h, want)
			bk := arith.BulkOf(f)
			one := f.One()
			ones := []arith.Num{one, one}
			for i := range v {
				if got := f.ToFloat64(f.MulAdd(one, v[i], h[i])); got != want[i] {
					t.Fatalf("MulAdd(1, %g, %g) = %g, pipeline %g", vs[i], hs[i], got, want[i])
				}
				d := []arith.Num{v[i]}
				bk.MulAddKernel(one, d, []arith.Num{h[i]}, d)
				if got := f.ToFloat64(d[0]); got != want[i] {
					t.Fatalf("aliased MulAddKernel(1, %g, %g) = %g, pipeline %g", vs[i], hs[i], got, want[i])
				}
				if got := f.ToFloat64(bk.DotKernel([]arith.Num{v[i], h[i]}, ones)); got != want[i] {
					t.Fatalf("DotKernel(%g, %g) = %g, pipeline %g", vs[i], hs[i], got, want[i])
				}
				mv := make([]arith.Num, 1)
				bk.MatVecKernel([]int{0, 2}, []int{0, 1}, []arith.Num{v[i], h[i]}, ones, mv)
				if got := f.ToFloat64(mv[0]); got != want[i] {
					t.Fatalf("MatVecKernel(%g, %g) = %g, pipeline %g", vs[i], hs[i], got, want[i])
				}
			}
		})
	}
}

// TestWideBinadeEnds rounds values at both ends of every binade of the
// range, and just past it, through FromFloat64, Mul and ScaleKernel:
// the carry out of a binade's last fraction step and the handover
// between fraction and region scales must match the integer pipeline.
func TestWideBinadeEnds(t *testing.T) {
	for _, c := range wideConfigs {
		t.Run(c.String(), func(t *testing.T) {
			f, slow := arith.FastPosit(c), arith.Posit(c)
			bk, one := arith.BulkOf(f), f.One()
			for s := c.MinScale() - 2; s <= c.MaxScale()+2; s++ {
				lo, hi := math.Ldexp(1, s), math.Ldexp(1, s+1)
				top := math.Nextafter(hi, 0)
				for _, v := range []float64{lo, math.Nextafter(lo, hi), 1.5 * lo, top, math.Nextafter(top, 0), -top} {
					want := slow.ToFloat64(slow.FromFloat64(v))
					if got := f.ToFloat64(f.FromFloat64(v)); got != want {
						t.Fatalf("FromFloat64(%.17g) = %.17g, pipeline %.17g", v, got, want)
					}
					// A product by one is exact, so Mul and ScaleKernel
					// round v itself.
					rv := arith.Num(math.Float64bits(v))
					if got := f.ToFloat64(f.Mul(rv, one)); got != want {
						t.Fatalf("Mul(%.17g, 1) = %.17g, pipeline %.17g", v, got, want)
					}
					g := []arith.Num{rv}
					bk.ScaleKernel(one, g)
					if got := f.ToFloat64(g[0]); got != want {
						t.Fatalf("ScaleKernel(1, %.17g) = %.17g, pipeline %.17g", v, got, want)
					}
				}
			}
		})
	}
}
