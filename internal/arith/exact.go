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
//     rounded to the even pattern by the kept-bit parity (roundExact;
//     kept-bit parity equals pattern parity, since the pattern of 2^s
//     has a zero fraction field whenever there are explicit fraction
//     bits). A float64 handed to FromFloat64 is exact too and rounds
//     the same way.
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
// pipeline. The common case is the inline step, inlineTable.round: one
// {mask, tie} load for the result's exponent, one compare and three
// integer ops in registers, with no branch on the rounding direction.
// The rare cases (specials, region scales, the IEEE top binade,
// quotient boundary hits) go through Tables.roundFrom, which is still
// pure table lookups plus a binary search within one binade.
// Bit-identity with the scalar pipeline is asserted exhaustively in
// table_test.go and, for operands aimed at sum boundaries, in
// tie_test.go.
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

// inlineTable is a fast format's inline rounding step, one entry per
// float64 biased exponent e: mask = 2^drop−1 covers the low mantissa
// bits that rounding a magnitude of binade e to the format discards,
// and tie = 2^(drop−1) is the pattern of those bits exactly on a
// rounding boundary. Both are zero where no inline rounding applies:
// zeros, float64 subnormals, specials, scales outside the format's
// range, region scales (no explicit fraction bits), and an IEEE
// format's top binade, whose carry would overflow. mask and tie cover
// only low mantissa bits, so the sign stays in the value's bits and
// one entry serves both signs.
//
// Scales with explicit fraction bits form one run, and a carry out of
// the run's top binade lands on a power of two the format represents
// (the IEEE top binade is left out for this), so an inline result is
// always a finite format value.
type inlineTable [2048]struct{ mask, tie uint64 }

// newInlineTable builds the table of a format with fb[i] fraction bits
// at scale minScale+i (negative counts region scales). Only the
// entries of the format's range are written.
func newInlineTable(minScale int, fb []int8) *inlineTable {
	t := new(inlineTable)
	for i, b := range fb {
		if b >= 1 {
			e := &t[minScale+i+1023]
			e.mask = uint64(1)<<(52-int(b)) - 1
			e.tie = e.mask>>1 + 1
		}
	}
	return t
}

// round rounds the float64 bits b to nearest in the format, the one
// inline rounding step of both fast engines. With ok, b lies off every
// rounding boundary at an exponent that rounds inline, and r is the
// result. Otherwise tie != 0 says b lies exactly on a boundary, between
// r toward zero and r + 2·tie away from zero, which the caller decides
// by its own tie rule; tie == 0 sends b to the caller's off path.
//
// The one compare b&mask != tie sorts all three cases: a no-inline
// entry compares 0 with 0. Off a boundary the halfway rule never
// applies, so adding tie−1 and truncating rounds to nearest with no
// branch on the direction; a carry out of the mantissa lands on the
// next binade's first value, since float64 bits are value-ordered.
func (t *inlineTable) round(b uint64) (r, tie uint64, ok bool) {
	e := &t[b>>52&2047]
	return (b + e.tie - 1) &^ e.mask, e.tie, b&e.mask != e.tie
}

// sumTieUp settles a sum s = fl(x+y) that lies exactly on a rounding
// boundary, between the bits r toward zero and r + 2·tie away from
// zero (as inlineTable.round returns them). The Knuth TwoSum residual
// e = x+y-s is exact: zero means a genuine tie, which goes to the even
// pattern (the kept-bit parity r&(2·tie), as for exact products);
// otherwise the exact sum is beyond the boundary in magnitude when e
// has s's sign. For two format values e is always zero (their sum is
// exact wherever it meets a boundary); only an addend off the format
// grid makes it not.
func sumTieUp(x, y, s float64, r, tie uint64) uint64 {
	bv := s - x
	e := (x - (s - bv)) + (y - bv)
	if e == 0 {
		return r + r&(tie<<1)
	}
	if (e > 0) == (s > 0) {
		return r + tie<<1
	}
	return r
}

// --- scalar operations ---
//
// Each op: native float64 arithmetic, then the inline step — ties of
// exact products by parity, boundary hits of sums by the TwoSum
// residual — falling back to Tables.roundFrom for everything else
// (zeros, specials, region scales, the IEEE top binade and quotient
// boundary hits).

// add rounds x + y.
func (t *Tables) add(x, y float64) float64 {
	s := x + y
	r, tie, ok := t.inline.round(math.Float64bits(s))
	if ok {
		return math.Float64frombits(r)
	}
	if tie != 0 {
		return math.Float64frombits(sumTieUp(x, y, s, r, tie))
	}
	return t.roundFrom(s, tieSum, x, y)
}

// roundExact rounds an exact x — a product, or a value handed to
// FromFloat64 — so a boundary hit is a genuine tie: it goes to the
// even pattern via the kept-bit parity. The kernels call it for every
// nonzero product off their inline path.
func (t *Tables) roundExact(x float64) float64 {
	r, tie, ok := t.inline.round(math.Float64bits(x))
	if ok {
		return math.Float64frombits(r)
	}
	if tie != 0 {
		return math.Float64frombits(r + r&(tie<<1))
	}
	return t.roundFrom(x, tieExact, 0, 0)
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
	if v, _, ok := t.inline.round(math.Float64bits(r)); ok {
		return Num(v)
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
// Every rounding in the loops calls the inline step and then sorts its
// misses in the scalar operations' order: a zero result takes a cheap
// branch (zero products dominate the trailing updates of sparse
// factors), a product off the inline path takes roundExact, and a sum
// on a boundary settles inline through sumTieUp before anything else
// reaches roundFrom. Any deviation from the scalar operations above is
// a bug — table_test.go, tie_test.go and kernels_test.go pin them
// together differentially.

func (k *tableFormat) DotKernel(x, y []Num) Num {
	t := k.lt.get()
	it, ieee := t.inline, t.ieee
	y = y[:len(x)]
	s := 0.0
	for i := range x {
		m := f64(x[i]) * f64(y[i])
		if r, _, ok := it.round(math.Float64bits(m)); ok {
			m = math.Float64frombits(r)
		} else if m == 0 {
			if !ieee {
				m = 0 // posits have one zero
			}
		} else {
			m = t.roundExact(m)
		}
		sum := s + m
		if r, tie, ok := it.round(math.Float64bits(sum)); ok {
			s = math.Float64frombits(r)
		} else if sum == 0 {
			if !ieee {
				sum = 0
			}
			s = sum
		} else if tie != 0 {
			s = math.Float64frombits(sumTieUp(s, m, sum, r, tie))
		} else {
			s = t.roundFrom(sum, tieSum, s, m)
		}
	}
	return n64(s)
}

func (k *tableFormat) ScaleKernel(alpha Num, x []Num) {
	t := k.lt.get()
	it, ieee := t.inline, t.ieee
	a := f64(alpha)
	for i := range x {
		m := a * f64(x[i])
		if r, _, ok := it.round(math.Float64bits(m)); ok {
			x[i] = Num(r)
		} else if m == 0 {
			if !ieee {
				m = 0
			}
			x[i] = n64(m)
		} else {
			x[i] = n64(t.roundExact(m))
		}
	}
}

// AxpyKernel is MulAddKernel with dst = y: the sum m + y[i] rounds the
// same as y[i] + m.
func (k *tableFormat) AxpyKernel(alpha Num, x, y []Num) { k.MulAddKernel(alpha, x, y, y) }

func (k *tableFormat) MulAddKernel(alpha Num, x, y, dst []Num) {
	t := k.lt.get()
	it, ieee := t.inline, t.ieee
	a := f64(alpha)
	y = y[:len(x)]
	dst = dst[:len(x)]
	for i := range x {
		m := a * f64(x[i])
		if r, _, ok := it.round(math.Float64bits(m)); ok {
			m = math.Float64frombits(r)
		} else if m == 0 {
			if !ieee {
				m = 0
			}
		} else {
			m = t.roundExact(m)
		}
		yi := f64(y[i])
		sum := m + yi
		if r, tie, ok := it.round(math.Float64bits(sum)); ok {
			dst[i] = Num(r)
		} else if sum == 0 {
			if !ieee {
				sum = 0
			}
			dst[i] = n64(sum)
		} else if tie != 0 {
			dst[i] = Num(sumTieUp(m, yi, sum, r, tie))
		} else {
			dst[i] = n64(t.roundFrom(sum, tieSum, m, yi))
		}
	}
}

func (k *tableFormat) MatVecKernel(rowPtr, col []int, val []Num, x, y []Num) {
	t := k.lt.get()
	it, ieee := t.inline, t.ieee
	for i := 0; i+1 < len(rowPtr); i++ {
		s := 0.0
		for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
			m := f64(val[idx]) * f64(x[col[idx]])
			if r, _, ok := it.round(math.Float64bits(m)); ok {
				m = math.Float64frombits(r)
			} else if m == 0 {
				if !ieee {
					m = 0
				}
			} else {
				m = t.roundExact(m)
			}
			sum := s + m
			if r, tie, ok := it.round(math.Float64bits(sum)); ok {
				s = math.Float64frombits(r)
			} else if sum == 0 {
				if !ieee {
					sum = 0
				}
				s = sum
			} else if tie != 0 {
				s = math.Float64frombits(sumTieUp(s, m, sum, r, tie))
			} else {
				s = t.roundFrom(sum, tieSum, s, m)
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
	it, ieee := t.inline, t.ieee
	a := f64(alpha)
	for i := range x {
		xi := f64(x[i])
		q := xi / a
		if r, _, ok := it.round(math.Float64bits(q)); ok {
			x[i] = Num(r)
		} else if q == 0 {
			if !ieee {
				q = 0
			}
			x[i] = n64(q)
		} else {
			x[i] = n64(t.roundFrom(q, tieDiv, xi, a))
		}
	}
}
