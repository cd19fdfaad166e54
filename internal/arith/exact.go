package arith

import (
	"math"
	"sync"
)

// The lookup-table engine: the fast implementation of every format of
// at most 16 bits.
//
// For a format with at most 15 significand bits and scales well inside
// float64's range, the product of any two format values is *exact* in
// float64 (<=30 significand bits, exponents bounded), and every sum,
// quotient, or square root is correctly rounded to 53 bits — far more
// than the format keeps. Rounding those results against the format's
// Tables resolves every case without ever leaving float64:
//
//   - Products are exact, so a result on a boundary is a genuine tie —
//     rounded to the even pattern inline (kept-bit parity equals
//     pattern parity, since the pattern of 2^s has a zero fraction
//     field whenever there are explicit fraction bits). A float64
//     handed to FromFloat64 is exact too and rounds the same way.
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
// The upshot: the operations below never call the bit-pattern
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

// tableFormat is the fast implementation of a format of at most 16
// bits: its Num is the value as float64 bits, and every operation
// rounds against the format's Tables, built on first use.
type tableFormat struct {
	lt   lazyTables
	name string
	// id is the format's identity, a posit.Config or a
	// minifloat.Format, for PositConfig and MiniConfig.
	id            any
	eps, maxValue float64
}

// lazyTables defers the table build to first use and memoizes the
// result; the build itself is deduplicated process-wide by the
// registry in tablereg.go.
type lazyTables struct {
	once  sync.Once
	spec  string
	build func() *Tables
	tab   *Tables
}

func (l *lazyTables) get() *Tables {
	l.once.Do(func() { l.tab = tablesFor(l.spec, l.build) })
	return l.tab
}

// TablesOf returns the lookup-table engine behind f, building it on
// first use, and whether f has one (the <=16-bit fast formats).
// Callers like positd's /v1/convert use it for O(1) canonical
// encodings.
func TablesOf(f Format) (*Tables, bool) {
	if k, ok := f.(*tableFormat); ok {
		return k.lt.get(), true
	}
	return nil, false
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

// add rounds x + y.
func (t *Tables) add(x, y float64) float64 {
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

// roundExact rounds an exact r — a product, or a value handed to
// FromFloat64 — so a boundary hit is a genuine tie: it goes to the
// even pattern via the kept-bit parity.
func (t *Tables) roundExact(r float64) float64 {
	ab := math.Float64bits(r)
	sb := ab & signBit64
	ab ^= sb
	if drop := uint(t.dropByE[ab>>52]) & 63; drop != 0 {
		mask := uint64(1)<<drop - 1
		if rb := roundBits(ab, mask, ab>>drop&1); rb <= t.maxFinBits {
			return math.Float64frombits(rb | sb)
		}
	}
	return t.roundFrom(r, tieExact, 0, 0)
}

func (k *tableFormat) Name() string { return k.name }

func (k *tableFormat) FromFloat64(x float64) Num { return n64(k.lt.get().roundExact(x)) }

func (k *tableFormat) ToFloat64(a Num) float64 { return f64(a) }

func (k *tableFormat) Add(a, b Num) Num { return n64(k.lt.get().add(f64(a), f64(b))) }

// Sub(a, b) = Add(a, -b): rounding is sign-symmetric and -b is exact.
func (k *tableFormat) Sub(a, b Num) Num { return n64(k.lt.get().add(f64(a), -f64(b))) }

func (k *tableFormat) Mul(a, b Num) Num { return n64(k.lt.get().roundExact(f64(a) * f64(b))) }

// MulAdd fuses the pair: product rounded, then sum rounded —
// bit-identical to Add(Mul(a, b), c) with one dispatch.
func (k *tableFormat) MulAdd(a, b, c Num) Num {
	t := k.lt.get()
	return n64(t.add(t.roundExact(f64(a)*f64(b)), f64(c)))
}

func (k *tableFormat) Div(a, b Num) Num {
	t := k.lt.get()
	x, y := f64(a), f64(b)
	if x == 1 {
		// Reciprocals are fully tabulated (One is exactly 1 in the
		// value domain for every format).
		return n64(t.decode[t.recip[t.valuePat(y)]])
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
				return Num(rb | sb)
			}
		}
	}
	return n64(t.roundFrom(r, tieDiv, x, y))
}

// Sqrt is a single table lookup: the sqrt table covers every pattern,
// including negatives and specials, with the pipeline's own results.
func (k *tableFormat) Sqrt(a Num) Num {
	t := k.lt.get()
	return n64(t.decode[t.sqrt[t.valuePat(f64(a))]])
}

func (k *tableFormat) Neg(a Num) Num {
	v := -f64(a)
	if v == 0 && !k.lt.get().ieee {
		v = 0 // posit has a single (positive) zero
	}
	return n64(v)
}

func (k *tableFormat) Zero() Num         { return n64(0) }
func (k *tableFormat) One() Num          { return n64(1) }
func (k *tableFormat) IsZero(a Num) bool { return f64(a) == 0 }

// Bad reports NaN/NaR or an IEEE infinity; a posit never holds an
// infinity.
func (k *tableFormat) Bad(a Num) bool {
	v := f64(a)
	return math.IsNaN(v) || math.IsInf(v, 0)
}
func (k *tableFormat) Less(a, b Num) bool { return f64(a) < f64(b) }
func (k *tableFormat) Eps() float64       { return k.eps }
func (k *tableFormat) MaxValue() float64  { return k.maxValue }

// --- slice kernels ---
//
// The loops repeat the scalar rounding logic inline (the Go inliner
// refuses functions with fallback calls, so only the call-free
// roundBits and sumTieUp are shared). Any deviation from the scalar
// operations above is a bug — table_test.go and kernels_test.go pin
// them together differentially.

func (k *tableFormat) DotKernel(x, y []Num) Num {
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

func (k *tableFormat) ScaleKernel(alpha Num, x []Num) {
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

// AxpyKernel is MulAddKernel with dst = y: the sum m + y[i] rounds the
// same as y[i] + m.
func (k *tableFormat) AxpyKernel(alpha Num, x, y []Num) { k.MulAddKernel(alpha, x, y, y) }

func (k *tableFormat) MulAddKernel(alpha Num, x, y, dst []Num) {
	t := k.lt.get()
	drops, maxFin, ieee := &t.dropByE, t.maxFinBits, t.ieee
	a := f64(alpha)
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

func (k *tableFormat) MatVecKernel(rowPtr, col []int, val []Num, x, y []Num) {
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

func (k *tableFormat) TrailingUpdateKernel(nalpha Num, x, w []Num) {
	k.MulAddKernel(nalpha, x, w, w)
}

func (k *tableFormat) DivKernel(alpha Num, x []Num) {
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
