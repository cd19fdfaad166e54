package arith_test

import (
	"fmt"
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/bigfp"
	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

// narrowFormat pairs a fast format of at most 16 bits with its slow
// integer-pipeline reference — the ground truth every rounded
// value-domain result is checked against.
type narrowFormat struct {
	name  string
	width int
	fast  arith.Format // value-domain implementation
	slow  arith.Format // integer pipeline reference
}

func narrowFormats(t *testing.T) []narrowFormat {
	t.Helper()
	var fs []narrowFormat
	for _, n := range []int{8, 16} {
		for es := 0; es <= 4; es++ {
			fs = append(fs, narrowFormat{
				name:  fmt.Sprintf("posit%des%d", n, es),
				width: n,
				fast:  arith.MustByName(fmt.Sprintf("posit%des%d", n, es)),
				slow:  arith.Posit(posit.MustNew(n, es)),
			})
		}
	}
	fs = append(fs,
		narrowFormat{"float16", 16, arith.MustByName("float16"), arith.Mini(minifloat.Float16, "Float16")},
		narrowFormat{"bfloat16", 16, arith.MustByName("bfloat16"), arith.Mini(minifloat.BFloat16, "BFloat16")},
		narrowFormat{"fp8e5m2", 8, arith.MustByName("fp8e5m2"), arith.Mini(minifloat.MustNew(5, 2), "FP8-E5M2")},
		narrowFormat{"fp8e4m3", 8, arith.MustByName("fp8e4m3"), arith.Mini(minifloat.MustNew(4, 3), "FP8-E4M3")},
	)
	for _, f := range fs {
		if _, ok := arith.TablesOf(f.fast); !ok {
			t.Fatalf("%s: expected a fast format", f.name)
		}
	}
	return fs
}

// refCut is the tests' rounding-boundary oracle, independent of the
// fast formats: the float64 bits of the boundary between the positive
// patterns p−1 and p of a reference format ref (Posit or Mini), for p
// from 1 to refMaxPat(ref)+1, where the last is the overflow threshold.
// A posit's boundary is the value of the (n+1)-bit pattern 2p−1, the
// pattern-space midpoint, evaluated in math/big; its overflow
// threshold is +Inf, since a posit clamps at maxpos. An IEEE boundary
// is the midpoint of adjacent values, and the threshold the midpoint
// of maxFinite and 2^(emax+1), at or beyond which a result is
// infinite. Every boundary is exact in float64.
func refCut(ref arith.Format, p uint64) uint64 {
	if c, ok := arith.PositConfig(ref); ok {
		if p > uint64(c.MaxPos()) {
			return math.Float64bits(math.Inf(1))
		}
		v, _ := bigfp.PatternValue(c.N()+1, c.ES(), 2*p-1).Float64()
		return math.Float64bits(v)
	}
	m, _ := arith.MiniConfig(ref)
	hi := math.Ldexp(1, m.Emax()+1)
	if p <= uint64(m.MaxFinite()) {
		hi = ref.ToFloat64(arith.Num(p))
	}
	return math.Float64bits((ref.ToFloat64(arith.Num(p-1)) + hi) / 2)
}

// refMaxPat returns the largest positive finite pattern of ref.
func refMaxPat(ref arith.Format) uint64 {
	if c, ok := arith.PositConfig(ref); ok {
		return uint64(c.MaxPos())
	}
	m, _ := arith.MiniConfig(ref)
	return uint64(m.MaxFinite())
}

// refCuts returns every boundary of a reference of at most 16 bits:
// cut[p] = refCut(ref, p) for p from 1 to refMaxPat(ref)+1, and
// cut[0] = 0.
func refCuts(ref arith.Format) []uint64 {
	cut := make([]uint64, refMaxPat(ref)+2)
	for p := 1; p < len(cut); p++ {
		cut[p] = refCut(ref, uint64(p))
	}
	return cut
}

// TestTablesDecodeExhaustive checks, for the value of every pattern of
// every fast format of at most 16 bits, that the fast format's
// FromFloat64 keeps it (a format value rounds to itself) and rounds it
// as the reference's FromFloat64 does: 2^width values, zero tolerance.
func TestTablesDecodeExhaustive(t *testing.T) {
	for _, tf := range narrowFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			f := tf.fast
			for p := 0; p < 1<<tf.width; p++ {
				v := tf.slow.ToFloat64(arith.Num(p))
				got := f.FromFloat64(v)
				if !eqNum(f, got, arith.Num(math.Float64bits(v))) {
					t.Fatalf("pattern %#x: FromFloat64(%g) = %g (bits %x), not the value itself", p, v, f.ToFloat64(got), uint64(got))
				}
				want := tf.slow.ToFloat64(tf.slow.FromFloat64(v))
				if !eqNum(f, got, arith.Num(math.Float64bits(want))) {
					t.Fatalf("pattern %#x: FromFloat64(%g) = %g, pipeline %g", p, v, f.ToFloat64(got), want)
				}
			}
		})
	}
}

// TestTablesEncodeBoundariesExhaustive probes FromFloat64 exactly at
// every rounding boundary of the reference (refCut), one float64 ulp
// below, and one above — positive and negated — against the pipeline's
// FromFloat64. Ties (the boundary itself) exercise the even-pattern
// rule; the ±1-ulp neighbors pin the boundary placement to the exact
// cut.
func TestTablesEncodeBoundariesExhaustive(t *testing.T) {
	for _, tf := range narrowFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			for _, cb := range refCuts(tf.slow) {
				b := math.Float64frombits(cb)
				for _, v := range []float64{
					b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)),
				} {
					for _, x := range []float64{v, -v} {
						got := tf.fast.FromFloat64(x)
						want := tf.slow.ToFloat64(tf.slow.FromFloat64(x))
						if !eqNum(tf.fast, got, arith.Num(math.Float64bits(want))) {
							t.Fatalf("FromFloat64(%g / bits %x) = %g, pipeline %g",
								x, math.Float64bits(x), tf.fast.ToFloat64(got), want)
						}
					}
				}
			}
		})
	}
}

// TestTablesUnaryExhaustive runs the value-domain Sqrt and the
// reciprocal (Div with unit numerator) through the fast format for all
// 2^width patterns and compares with the pipeline — covering every root
// and reciprocal that leaves the inline step (specials, the IEEE top
// binade, boundary hits), which the off path rounds as an exact value
// or through the reference.
func TestTablesUnaryExhaustive(t *testing.T) {
	for _, tf := range narrowFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			one := tf.fast.One()
			n := 1 << tf.width
			for p := 0; p < n; p++ {
				v := tf.slow.ToFloat64(arith.Num(p))
				x := tf.fast.FromFloat64(v)

				gs := tf.fast.ToFloat64(tf.fast.Sqrt(x))
				ws := tf.slow.ToFloat64(tf.slow.Sqrt(arith.Num(p)))
				if math.Float64bits(gs) != math.Float64bits(ws) &&
					!(math.IsNaN(gs) && math.IsNaN(ws)) {
					t.Fatalf("Sqrt(%#x): fast %g, pipeline %g", p, gs, ws)
				}

				gr := tf.fast.ToFloat64(tf.fast.Div(one, x))
				wr := tf.slow.ToFloat64(tf.slow.Div(tf.slow.One(), arith.Num(p)))
				if math.Float64bits(gr) != math.Float64bits(wr) &&
					!(math.IsNaN(gr) && math.IsNaN(wr)) {
					t.Fatalf("Recip(%#x): fast %g, pipeline %g", p, gr, wr)
				}
			}
		})
	}
}

// TestTablesBinaryOpsRandom sweeps randomized pattern pairs — the full
// pattern space, so NaR/NaN/Inf/zero/max operands appear at their
// natural density — through Add/Sub/Mul/Div/MulAdd on the fast path
// and the pipeline.
func TestTablesBinaryOpsRandom(t *testing.T) {
	pairs := 60000
	if testing.Short() {
		pairs = 4000
	}
	for _, tf := range narrowFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			mask := uint64(1)<<tf.width - 1
			rng := uint64(0x1F3A5C7E9B2D4F68)
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for i := 0; i < pairs; i++ {
				pa, pb := next()&mask, next()&mask
				va, vb := tf.slow.ToFloat64(arith.Num(pa)), tf.slow.ToFloat64(arith.Num(pb))
				fa, fb := tf.fast.FromFloat64(va), tf.fast.FromFloat64(vb)
				sa, sb := arith.Num(pa), arith.Num(pb)
				check := func(op string, g, w arith.Num) {
					gv, wv := tf.fast.ToFloat64(g), tf.slow.ToFloat64(w)
					if math.Float64bits(gv) != math.Float64bits(wv) &&
						!(math.IsNaN(gv) && math.IsNaN(wv)) {
						t.Fatalf("%s(%#x,%#x) = fast %g (bits %x), pipeline %g (bits %x)",
							op, pa, pb, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
					}
				}
				check("Add", tf.fast.Add(fa, fb), tf.slow.Add(sa, sb))
				check("Sub", tf.fast.Sub(fa, fb), tf.slow.Sub(sa, sb))
				check("Mul", tf.fast.Mul(fa, fb), tf.slow.Mul(sa, sb))
				check("Div", tf.fast.Div(fa, fb), tf.slow.Div(sa, sb))
				check("MulAdd", tf.fast.MulAdd(fa, fb, tf.fast.One()),
					tf.slow.MulAdd(sa, sb, tf.slow.One()))
			}
		})
	}
}

// TestTable8Exhaustive compares the 8-bit fast posit formats against
// the integer pipeline over every operand pair — all 2^16 combinations per
// es, every binary op, plus the square root.
func TestTable8Exhaustive(t *testing.T) {
	for es := 0; es <= 4; es++ {
		t.Run(fmt.Sprintf("posit8es%d", es), func(t *testing.T) {
			fast := arith.MustByName(fmt.Sprintf("posit8es%d", es))
			c := posit.MustNew(8, es)
			slow := arith.Posit(c)
			// The fast Num is the value, not the pattern: each pattern
			// enters the fast format through its value.
			for a := 0; a < 256; a++ {
				va := slow.ToFloat64(arith.Num(a))
				fa := fast.FromFloat64(va)
				gs := fast.ToFloat64(fast.Sqrt(fa))
				ws := slow.ToFloat64(slow.Sqrt(arith.Num(a)))
				if math.Float64bits(gs) != math.Float64bits(ws) && !(math.IsNaN(gs) && math.IsNaN(ws)) {
					t.Fatalf("Sqrt(%#x): fast %g, pipeline %g", a, gs, ws)
				}
				for b := 0; b < 256; b++ {
					vb := slow.ToFloat64(arith.Num(b))
					fb := fast.FromFloat64(vb)
					check := func(op string, g, w arith.Num) {
						gv, wv := fast.ToFloat64(g), slow.ToFloat64(w)
						if math.Float64bits(gv) != math.Float64bits(wv) &&
							!(math.IsNaN(gv) && math.IsNaN(wv)) {
							t.Fatalf("%s(%#x,%#x): fast %g, pipeline %g", op, a, b, gv, wv)
						}
					}
					check("Add", fast.Add(fa, fb), slow.Add(arith.Num(a), arith.Num(b)))
					check("Sub", fast.Sub(fa, fb), slow.Sub(arith.Num(a), arith.Num(b)))
					check("Mul", fast.Mul(fa, fb), slow.Mul(arith.Num(a), arith.Num(b)))
					check("Div", fast.Div(fa, fb), slow.Div(arith.Num(a), arith.Num(b)))
				}
			}
		})
	}
}

// TestDivKernelMatchesScalar asserts DivKernel is bit-identical to the
// scalar x[i] = Div(x[i], alpha) loop for every registered format,
// including exceptional divisors (zero, NaR/NaN, huge, tiny).
func TestDivKernelMatchesScalar(t *testing.T) {
	n := 257
	if testing.Short() {
		n = 65
	}
	for name, f := range kernelFormats(t) {
		t.Run(name, func(t *testing.T) {
			bk := arith.BulkOf(f)
			x := kernelOperands(f, n, 0xC0FFEE12345678)
			alphas := []arith.Num{
				f.FromFloat64(1.0 / 3.0),
				f.FromFloat64(3),
				f.One(),
				f.Zero(),
				f.FromFloat64(math.NaN()),
				f.FromFloat64(f.MaxValue()),
				f.FromFloat64(-1e-3),
			}
			for _, alpha := range alphas {
				want := cloneNums(x)
				for i := range want {
					want[i] = f.Div(want[i], alpha)
				}
				got := cloneNums(x)
				bk.DivKernel(alpha, got)
				for i := range want {
					if !eqNum(f, got[i], want[i]) {
						t.Fatalf("alpha=%g: DivKernel[%d] = %g, scalar Div = %g",
							f.ToFloat64(alpha), i, f.ToFloat64(got[i]), f.ToFloat64(want[i]))
					}
				}
			}
		})
	}
}

// TestDivKernelInstrumented checks the batched Div count of an
// observed DivKernel call.
func TestDivKernelInstrumented(t *testing.T) {
	n := 64
	base := arith.Posit16e2
	x := kernelOperands(base, n, 7)

	var c arith.AtomicOpCounts
	f := arith.Observe(base, &c)
	arith.BulkOf(f).DivKernel(base.FromFloat64(2), cloneNums(x))
	if got := c.Snapshot(); got != (arith.OpCounts{Div: uint64(n)}) {
		t.Errorf("observed DivKernel counts = %+v, want %d divisions", got, n)
	}
}

// TestTableRegistrySingleflight forgets a spec's registry entry, then
// hammers its first use from many goroutines, split across two format
// values of the spec: exactly one inline-table build must happen, both
// values must share the one table, every caller must see the same
// results, and the run must be race-clean (asserted under -race, and
// repeated by make stress).
func TestTableRegistrySingleflight(t *testing.T) {
	c := posit.MustNew(12, 1) // no other test uses posit(12,1)
	arith.ForgetTablesForTest(arith.PositTableSpec(c))
	fs := [2]arith.Format{arith.FastPosit(c), arith.FastPosit(c)}
	before := arith.TableBuildCount()
	const workers = 24
	results := make([]arith.Num, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			f := fs[w%2]
			x := f.FromFloat64(1.5)
			results[w] = f.Add(x, f.Mul(x, x)) // first op forces the lazy build
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	if d := arith.TableBuildCount() - before; d != 1 {
		t.Errorf("parallel first use built %d times, want exactly 1", d)
	}
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Errorf("worker %d saw %v, worker 0 saw %v", w, results[w], results[0])
		}
	}
	tab0, ok0 := arith.TablesOf(fs[0])
	tab1, ok1 := arith.TablesOf(fs[1])
	if !ok0 || !ok1 || tab0 == nil {
		t.Fatalf("TablesOf after build: ok=%v,%v table %p", ok0, ok1, tab0)
	}
	if tab0 != tab1 {
		t.Errorf("two FastPosit values of %s hold different tables", c)
	}
	named, _ := arith.TablesOf(arith.MustByName("posit16es1"))
	if paper, _ := arith.TablesOf(arith.Posit16e1); paper != named {
		t.Error("arith.Posit16e1 and MustByName(\"posit16es1\") hold different tables")
	}
}

// TestWideEngineSingleflight is TestTableRegistrySingleflight for a
// posit wider than 16 bits: constructing format values builds nothing,
// parallel first use of two values of one spec builds exactly one
// inline table, and both values hold it, as arith.Posit32e2 and
// MustByName("posit32es2") do.
func TestWideEngineSingleflight(t *testing.T) {
	c := posit.MustNew(28, 3) // not a registry format; no other test uses it
	arith.ForgetTablesForTest(arith.PositTableSpec(c))
	before := arith.TableBuildCount()
	fs := [2]arith.Format{arith.FastPosit(c), arith.FastPosit(c)}
	if d := arith.TableBuildCount() - before; d != 0 {
		t.Fatalf("constructing two %s values built %d tables, want 0", c, d)
	}
	if h := arith.HeldTableForTest(fs[0]); h != nil {
		t.Fatalf("%s holds a table before its first operation", c)
	}
	const workers = 24
	results := make([]arith.Num, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			f := fs[w%2]
			x := f.FromFloat64(1.5)
			results[w] = f.Add(x, f.Mul(x, x)) // first op forces the lazy build
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	if d := arith.TableBuildCount() - before; d != 1 {
		t.Errorf("parallel first use built %d times, want exactly 1", d)
	}
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Errorf("worker %d saw %v, worker 0 saw %v", w, results[w], results[0])
		}
	}
	if h0, h1 := arith.HeldTableForTest(fs[0]), arith.HeldTableForTest(fs[1]); h0 == nil || h0 != h1 {
		t.Errorf("two FastPosit values of %s hold tables %p and %p, want one", c, h0, h1)
	}
	named := arith.MustByName("posit32es2")
	arith.Posit32e2.FromFloat64(1)
	named.FromFloat64(1)
	if arith.HeldTableForTest(arith.Posit32e2) != arith.HeldTableForTest(named) {
		t.Error("arith.Posit32e2 and MustByName(\"posit32es2\") hold different tables")
	}
}

// TestTablesMemBytes checks that MemBytes counts the one table a fast
// format keeps, its inline rounding table: 2048 {add, mask, match,
// par} entries of 32 bytes, 65536 B for every fast format.
func TestTablesMemBytes(t *testing.T) {
	fasts, _ := refFormats()
	for _, f := range fasts {
		tab, ok := arith.TablesOf(f)
		if !ok {
			t.Fatalf("%s: TablesOf ok = false", f.Name())
		}
		if got := tab.MemBytes(); got != 65536 {
			t.Errorf("%s: MemBytes = %d, want 65536", f.Name(), got)
		}
	}
}
