package arith

import (
	"math"
	"sync"
)

// Exact table-driven kernels for the <=16-bit formats.
//
// For a format with at most 15 significand bits and scales well inside
// float64's range, the product of any two format values is *exact* in
// float64 (<=30 significand bits, exponents bounded), and every sum,
// quotient, or square root is correctly rounded to 53 bits — far more
// than the format keeps. The roundTables engine (fast.go) still treats
// results near a rounding boundary as ambiguous and falls back to the
// integer pipeline; with the Tables engine those cases resolve without
// ever leaving float64:
//
//   - Products are exact, so a result on a boundary is a genuine tie —
//     rounded to the even pattern inline (kept-bit parity equals
//     pattern parity, since the pattern of 2^s has a zero fraction
//     field whenever there are explicit fraction bits).
//   - Sums, quotients, and roots are correctly rounded in float64, and
//     every boundary of a <=16-bit format is itself a float64 value:
//     if the rounded result is not *exactly on* a boundary, the exact
//     result is provably on the same side (|exact-r| <= ½ulp(r) while
//     |r-B| >= 1 ulp), so rounding r rounds the exact result. A result
//     exactly on a boundary resolves by an exact residual. For sums —
//     where boundary hits are common, since the sum of two format
//     values is usually exact and often lands on a midpoint — the
//     kernels take the TwoSum residual inline (sumTieUp): zero is a
//     genuine tie, rounded to the even pattern as for products, and a
//     nonzero residual says which side the exact sum is on. Quotients
//     and roots, where hits are rare, leave the kernel and resolve by
//     an FMA remainder (boundaryTie in table.go).
//
// The upshot: the kernel loops below never call the bit-pattern
// pipeline. The common case is one dropByE load plus ~10 integer ops
// in registers, with no branch on the rounding direction (roundBits);
// the rare cases (specials, region scales, quotient boundary hits,
// overflow) go through Tables.roundFrom, which is still pure table
// lookups plus a binary search within one binade. Bit-identity with the
// scalar pipeline is asserted exhaustively in table_test.go and, for
// operands aimed at sum boundaries, in tie_test.go.
//
// Eligibility (checked by exactEligibleMini and FastPosit): width <=
// 16 and the product of any two format values representable as a
// normal float64. Every supported posit with n <= 16 qualifies
// (significand <= 14 bits, |scale| <= 224); an IEEE format qualifies
// when 2·emax+2 and 2·(emin-frac) stay inside float64's normal
// exponent range.

// lazyTables defers the table build to first use and memoizes the
// result; the build itself is deduplicated process-wide by the
// registry in tablereg.go.
type lazyTables struct {
	once  sync.Once
	build func() *Tables
	tab   *Tables
}

func (l *lazyTables) get() *Tables {
	l.once.Do(func() { l.tab = l.build() })
	return l.tab
}

// exactKernels is the table-driven engine attached to a fast format.
type exactKernels struct {
	lt lazyTables
}

// valuePat returns the format pattern of a float64 that *is* a format
// value (the invariant of the value-domain Num encoding).
func (t *Tables) valuePat(x float64) uint16 {
	if x == 0 {
		if t.ieee && math.Signbit(x) {
			return t.signPat
		}
		return 0
	}
	if math.IsNaN(x) {
		return t.nanPat
	}
	if math.IsInf(x, 0) {
		if !t.ieee {
			return t.nanPat
		}
		return t.pattern(uint32(t.infPat), math.Signbit(x))
	}
	return t.pattern(t.exactPat(math.Float64bits(x)&^signBit64), math.Signbit(x))
}

// --- inline rounding ---

// roundBits rounds the magnitude bits ab to nearest, clearing the
// discarded low bits mask = 2^drop-1 (drop >= 1); up (0 or 1) decides a
// value exactly halfway, 1 rounding away from zero. Adding half-1+up
// and truncating needs no branch, and a carry out of the mantissa lands
// on the next binade's first value, since float64 bits are
// value-ordered.
//
// The callers load drop as dropByE[e]&63: entries never exceed 52, and
// the mask tells the compiler every shift by drop stays below 64, which
// spares the hot loops its out-of-range shift fixups.
func roundBits(ab, mask, up uint64) uint64 {
	return (ab + mask>>1 + up) &^ mask
}

// sumTieUp decides a sum r = fl(x+y) whose magnitude sits exactly on a
// rounding boundary. The Knuth TwoSum residual e = x+y-r is exact: zero
// means a genuine tie, which goes to the even pattern (up = lsb, the
// kept-bit parity, as for exact products); otherwise the exact sum is
// beyond the boundary in magnitude (up = 1) when e has r's sign. For
// two format values e is always zero (their sum is exact wherever it
// meets a boundary); only an addend off the format grid makes it not.
func sumTieUp(x, y, r float64, sb, lsb uint64) uint64 {
	bv := r - x
	e := (x - (r - bv)) + (y - bv)
	if e == 0 {
		return lsb
	}
	return (math.Float64bits(e) ^ sb ^ signBit64) >> 63
}

// --- scalar operations ---
//
// Each op: native float64 arithmetic, then the inline rounder — look
// up the discard width for the result's exponent, round the mantissa
// at that width (ties of exact products by parity, boundary hits of
// sums by the TwoSum residual), check overflow — falling back to
// Tables.roundFrom for everything dropByE maps to 0 (zeros, specials,
// region scales) plus quotient boundary hits and overflow.

func (k *exactKernels) add(x, y float64) float64 {
	t := k.lt.get()
	r := x + y
	ab := math.Float64bits(r)
	sb := ab & signBit64
	ab ^= sb
	if drop := uint(t.dropByE[ab>>52]) & 63; drop != 0 {
		mask := uint64(1)<<drop - 1
		up := ab >> drop & 1
		if ab&mask == mask>>1+1 {
			up = sumTieUp(x, y, r, sb, up)
		}
		if rb := roundBits(ab, mask, up); rb <= t.maxFinBits {
			return math.Float64frombits(rb | sb)
		}
	}
	return t.roundFrom(r, tieSum, x, y)
}

func (k *exactKernels) mul(x, y float64) float64 {
	t := k.lt.get()
	r := x * y
	ab := math.Float64bits(r)
	sb := ab & signBit64
	ab ^= sb
	if drop := uint(t.dropByE[ab>>52]) & 63; drop != 0 {
		// The product is exact, so a boundary hit is a genuine tie:
		// round to the even pattern via the kept-bit parity.
		mask := uint64(1)<<drop - 1
		if rb := roundBits(ab, mask, ab>>drop&1); rb <= t.maxFinBits {
			return math.Float64frombits(rb | sb)
		}
	}
	return t.roundFrom(r, tieExact, 0, 0)
}

func (k *exactKernels) div(x, y float64) float64 {
	t := k.lt.get()
	if x == 1 {
		// Reciprocals are fully tabulated (One is exactly 1 in the
		// value domain for every format).
		return t.decode[t.recip[t.valuePat(y)]]
	}
	r := x / y
	ab := math.Float64bits(r)
	sb := ab & signBit64
	ab ^= sb
	if drop := uint(t.dropByE[ab>>52]) & 63; drop != 0 {
		// Off a boundary the halfway rule never applies (up = 0).
		mask := uint64(1)<<drop - 1
		if ab&mask != mask>>1+1 {
			if rb := roundBits(ab, mask, 0); rb <= t.maxFinBits {
				return math.Float64frombits(rb | sb)
			}
		}
	}
	return t.roundFrom(r, tieDiv, x, y)
}

// sqrtVal is a single table lookup: the sqrt table covers every
// pattern, including negatives and specials, with the pipeline's own
// results.
func (k *exactKernels) sqrtVal(x float64) float64 {
	t := k.lt.get()
	return t.decode[t.sqrt[t.valuePat(x)]]
}

// --- slice kernels ---
//
// The loops repeat the scalar rounding logic inline (the Go inliner
// refuses functions with fallback calls, so only the call-free
// roundBits and sumTieUp are shared). Any deviation from add/mul/div
// above is a bug — table_test.go and kernels_test.go pin them together
// differentially.

func (k *exactKernels) dot(x, y []Num) Num {
	t := k.lt.get()
	drops, maxFin, ieee := &t.dropByE, t.maxFinBits, t.ieee
	y = y[:len(x)]
	s := 0.0
	for i := range x {
		xi, yi := f64(x[i]), f64(y[i])
		m := xi * yi
		ab := math.Float64bits(m)
		sb := ab & signBit64
		ab ^= sb
		if drop := uint(drops[ab>>52]) & 63; drop != 0 {
			mask := uint64(1)<<drop - 1
			if rb := roundBits(ab, mask, ab>>drop&1); rb <= maxFin {
				m = math.Float64frombits(rb | sb)
				goto sum
			}
		} else if ab == 0 {
			// Zero products dominate banded matrices stored dense;
			// skip the general rounder (posits have one zero).
			if !ieee {
				m = 0
			}
			goto sum
		}
		m = t.roundFrom(m, tieExact, 0, 0)
	sum:
		{
			r := s + m
			ab = math.Float64bits(r)
			sb = ab & signBit64
			ab ^= sb
			if drop := uint(drops[ab>>52]) & 63; drop != 0 {
				mask := uint64(1)<<drop - 1
				up := ab >> drop & 1
				if ab&mask == mask>>1+1 {
					up = sumTieUp(s, m, r, sb, up)
				}
				if rb := roundBits(ab, mask, up); rb <= maxFin {
					s = math.Float64frombits(rb | sb)
					continue
				}
			} else if ab == 0 {
				if ieee {
					s = r
				} else {
					s = 0
				}
				continue
			}
			s = t.roundFrom(r, tieSum, s, m)
		}
	}
	return n64(s)
}

func (k *exactKernels) scale(alpha Num, x []Num) {
	t := k.lt.get()
	drops, maxFin, ieee := &t.dropByE, t.maxFinBits, t.ieee
	a := f64(alpha)
	for i := range x {
		m := a * f64(x[i])
		ab := math.Float64bits(m)
		sb := ab & signBit64
		ab ^= sb
		if drop := uint(drops[ab>>52]) & 63; drop != 0 {
			mask := uint64(1)<<drop - 1
			if rb := roundBits(ab, mask, ab>>drop&1); rb <= maxFin {
				x[i] = Num(rb | sb)
				continue
			}
		} else if ab == 0 {
			if ieee {
				x[i] = Num(sb)
			} else {
				x[i] = 0
			}
			continue
		}
		x[i] = n64(t.roundFrom(m, tieExact, 0, 0))
	}
}

// fma computes dst[i] = Add(Mul(a, x[i]), y[i]) — the shared body of
// AxpyKernel (dst = y), MulAddKernel, and TrailingUpdateKernel.
func (k *exactKernels) fma(a float64, x, y, dst []Num) {
	t := k.lt.get()
	drops, maxFin, ieee := &t.dropByE, t.maxFinBits, t.ieee
	y = y[:len(x)]
	dst = dst[:len(x)]
	for i := range x {
		m := a * f64(x[i])
		ab := math.Float64bits(m)
		sb := ab & signBit64
		ab ^= sb
		if drop := uint(drops[ab>>52]) & 63; drop != 0 {
			mask := uint64(1)<<drop - 1
			if rb := roundBits(ab, mask, ab>>drop&1); rb <= maxFin {
				m = math.Float64frombits(rb | sb)
				goto sum
			}
		} else if ab == 0 {
			if !ieee {
				m = 0
			}
			goto sum
		}
		m = t.roundFrom(m, tieExact, 0, 0)
	sum:
		{
			yi := f64(y[i])
			r := m + yi
			ab = math.Float64bits(r)
			sb = ab & signBit64
			ab ^= sb
			if drop := uint(drops[ab>>52]) & 63; drop != 0 {
				mask := uint64(1)<<drop - 1
				up := ab >> drop & 1
				if ab&mask == mask>>1+1 {
					up = sumTieUp(m, yi, r, sb, up)
				}
				if rb := roundBits(ab, mask, up); rb <= maxFin {
					dst[i] = Num(rb | sb)
					continue
				}
			} else if ab == 0 {
				if ieee {
					dst[i] = Num(sb)
				} else {
					dst[i] = 0
				}
				continue
			}
			dst[i] = n64(t.roundFrom(r, tieSum, m, yi))
		}
	}
}

func (k *exactKernels) matVec(rowPtr, col []int, val []Num, x, y []Num) {
	t := k.lt.get()
	drops, maxFin, ieee := &t.dropByE, t.maxFinBits, t.ieee
	for i := 0; i+1 < len(rowPtr); i++ {
		s := 0.0
		for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
			m := f64(val[idx]) * f64(x[col[idx]])
			ab := math.Float64bits(m)
			sb := ab & signBit64
			ab ^= sb
			if drop := uint(drops[ab>>52]) & 63; drop != 0 {
				mask := uint64(1)<<drop - 1
				if rb := roundBits(ab, mask, ab>>drop&1); rb <= maxFin {
					m = math.Float64frombits(rb | sb)
					goto sum
				}
			} else if ab == 0 {
				if !ieee {
					m = 0
				}
				goto sum
			}
			m = t.roundFrom(m, tieExact, 0, 0)
		sum:
			{
				r := s + m
				ab = math.Float64bits(r)
				sb = ab & signBit64
				ab ^= sb
				if drop := uint(drops[ab>>52]) & 63; drop != 0 {
					mask := uint64(1)<<drop - 1
					up := ab >> drop & 1
					if ab&mask == mask>>1+1 {
						up = sumTieUp(s, m, r, sb, up)
					}
					if rb := roundBits(ab, mask, up); rb <= maxFin {
						s = math.Float64frombits(rb | sb)
						continue
					}
				} else if ab == 0 {
					if ieee {
						s = r
					} else {
						s = 0
					}
					continue
				}
				s = t.roundFrom(r, tieSum, s, m)
			}
		}
		y[i] = n64(s)
	}
}

// divK computes x[i] = Div(x[i], alpha) — the Cholesky row division.
func (k *exactKernels) divK(alpha Num, x []Num) {
	t := k.lt.get()
	drops, maxFin, ieee := &t.dropByE, t.maxFinBits, t.ieee
	a := f64(alpha)
	for i := range x {
		xi := f64(x[i])
		r := xi / a
		ab := math.Float64bits(r)
		sb := ab & signBit64
		ab ^= sb
		if drop := uint(drops[ab>>52]) & 63; drop != 0 {
			mask := uint64(1)<<drop - 1
			if ab&mask != mask>>1+1 {
				if rb := roundBits(ab, mask, 0); rb <= maxFin {
					x[i] = Num(rb | sb)
					continue
				}
			}
		} else if ab == 0 {
			if ieee {
				x[i] = Num(sb)
			} else {
				x[i] = 0
			}
			continue
		}
		x[i] = n64(t.roundFrom(r, tieDiv, xi, a))
	}
}

// TablesOf returns the lookup-table engine behind f, building it on
// first use, and whether f has one (the <=16-bit fast formats).
// Callers like positd's /v1/convert use it for O(1) canonical
// encodings.
func TablesOf(f Format) (*Tables, bool) {
	switch v := f.(type) {
	case fastPosit:
		if v.ek != nil {
			return v.ek.lt.get(), true
		}
	case fastMini:
		if v.ek != nil {
			return v.ek.lt.get(), true
		}
	}
	return nil, false
}
