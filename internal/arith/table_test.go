package arith_test

import (
	"fmt"
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

// tabbedFormat pairs a table-backed fast format with its slow
// integer-pipeline reference — the ground truth every table entry and
// every rounded value-domain result is checked against.
type tabbedFormat struct {
	name string
	fast arith.Format // table-accelerated value-domain implementation
	slow arith.Format // integer pipeline reference
}

func tabbedFormats(t *testing.T) []tabbedFormat {
	t.Helper()
	var fs []tabbedFormat
	for _, n := range []int{8, 16} {
		for es := 0; es <= 4; es++ {
			fs = append(fs, tabbedFormat{
				name: fmt.Sprintf("posit%des%d", n, es),
				fast: arith.MustByName(fmt.Sprintf("posit%des%d", n, es)),
				slow: arith.Posit(posit.MustNew(n, es)),
			})
		}
	}
	fs = append(fs,
		tabbedFormat{"float16", arith.MustByName("float16"), arith.Mini(minifloat.Float16, "Float16")},
		tabbedFormat{"bfloat16", arith.MustByName("bfloat16"), arith.Mini(minifloat.BFloat16, "BFloat16")},
		tabbedFormat{"fp8e5m2", arith.MustByName("fp8e5m2"), arith.Mini(minifloat.MustNew(5, 2), "FP8-E5M2")},
		tabbedFormat{"fp8e4m3", arith.MustByName("fp8e4m3"), arith.Mini(minifloat.MustNew(4, 3), "FP8-E4M3")},
	)
	for _, f := range fs {
		if _, ok := arith.TablesOf(f.fast); !ok {
			t.Fatalf("%s: expected a table-backed fast format", f.name)
		}
	}
	return fs
}

// TestTablesDecodeExhaustive checks, for every pattern of every
// table-backed format, that the decode table equals the pipeline's
// ToFloat64 and that Encode maps each decoded value to the same
// canonical pattern FromFloat64 produces. This is the tentpole's
// bit-identity claim at its root: 2^width exact decodes, 2^width exact
// re-encodes, zero tolerance.
func TestTablesDecodeExhaustive(t *testing.T) {
	for _, tf := range tabbedFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			tab, _ := arith.TablesOf(tf.fast)
			n := 1 << tab.Width()
			for p := 0; p < n; p++ {
				got := tab.Decode(uint16(p))
				want := tf.slow.ToFloat64(arith.Num(p))
				if math.Float64bits(got) != math.Float64bits(want) &&
					!(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("Decode(%#x) = %g (bits %x), pipeline = %g (bits %x)",
						p, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				ep := tab.Encode(want)
				wp := uint16(tf.slow.FromFloat64(want))
				if ep != wp {
					t.Fatalf("Encode(Decode(%#x)) = %#x, pipeline FromFloat64 = %#x", p, ep, wp)
				}
			}
		})
	}
}

// TestTablesEncodeBoundariesExhaustive probes Encode exactly at every
// rounding boundary the tables store, one float64 ulp below, and one
// above — positive and negated — against the pipeline's FromFloat64.
// Ties (the boundary itself) exercise the even-pattern rule; the ±1-ulp
// neighbors pin the boundary placement to the exact cut.
func TestTablesEncodeBoundariesExhaustive(t *testing.T) {
	for _, tf := range tabbedFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			tab, _ := arith.TablesOf(tf.fast)
			for _, cb := range arith.CutsForTest(tab) {
				b := math.Float64frombits(cb)
				for _, v := range []float64{
					b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)),
				} {
					for _, x := range []float64{v, -v} {
						got := tab.Encode(x)
						want := uint16(tf.slow.FromFloat64(x))
						if got != want {
							t.Fatalf("Encode(%g / bits %x) = %#x, pipeline = %#x",
								x, math.Float64bits(x), got, want)
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
// binade, boundary hits), which the engine rounds from the float64
// result as an exact value.
func TestTablesUnaryExhaustive(t *testing.T) {
	for _, tf := range tabbedFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			tab, _ := arith.TablesOf(tf.fast)
			one := tf.fast.One()
			n := 1 << tab.Width()
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
	for _, tf := range tabbedFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			tab, _ := arith.TablesOf(tf.fast)
			mask := uint64(1)<<tab.Width() - 1
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

// TestTable8Exhaustive compares the 8-bit posit formats against the
// integer pipeline over every operand pair — all 2^16 combinations per
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
					t.Fatalf("Sqrt(%#x): table %g, pipeline %g", a, gs, ws)
				}
				for b := 0; b < 256; b++ {
					vb := slow.ToFloat64(arith.Num(b))
					fb := fast.FromFloat64(vb)
					check := func(op string, g, w arith.Num) {
						gv, wv := fast.ToFloat64(g), slow.ToFloat64(w)
						if math.Float64bits(gv) != math.Float64bits(wv) &&
							!(math.IsNaN(gv) && math.IsNaN(wv)) {
							t.Fatalf("%s(%#x,%#x): table %g, pipeline %g", op, a, b, gv, wv)
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
// values of the spec: exactly one build must happen, both values must
// share the same tables, every caller must see the same results, and
// the run must be race-clean (asserted under -race, and repeated by
// make stress).
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
	if !ok0 || !ok1 || tab0.Spec() != arith.PositTableSpec(c) {
		t.Fatalf("TablesOf after build: ok=%v,%v spec=%q", ok0, ok1, tab0.Spec())
	}
	if tab0 != tab1 {
		t.Errorf("two FastPosit values of %s hold different tables", tab0.Spec())
	}
	named, _ := arith.TablesOf(arith.MustByName("posit16es1"))
	if paper, _ := arith.TablesOf(arith.Posit16e1); paper != named {
		t.Error("arith.Posit16e1 and MustByName(\"posit16es1\") hold different tables")
	}
}

// TestWideEngineSingleflight is TestTableRegistrySingleflight for a
// posit wider than 16 bits: constructing format values builds nothing,
// parallel first use of two values of one spec builds exactly one
// engine, and both values hold it, as arith.Posit32e2 and
// MustByName("posit32es2") do.
func TestWideEngineSingleflight(t *testing.T) {
	c := posit.MustNew(28, 3) // not a registry format; no other test uses it
	arith.ForgetTablesForTest(arith.PositTableSpec(c))
	before := arith.TableBuildCount()
	fs := [2]arith.Format{arith.FastPosit(c), arith.FastPosit(c)}
	if d := arith.TableBuildCount() - before; d != 0 {
		t.Fatalf("constructing two %s values built %d engines, want 0", c, d)
	}
	if e := arith.EngineForTest(fs[0]); e != nil {
		t.Fatalf("%s holds an engine before its first operation", c)
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
	if e0, e1 := arith.EngineForTest(fs[0]), arith.EngineForTest(fs[1]); e0 == nil || e0 != e1 {
		t.Errorf("two FastPosit values of %s hold engines %p and %p, want one", c, e0, e1)
	}
	named := arith.MustByName("posit32es2")
	arith.Posit32e2.FromFloat64(1)
	named.FromFloat64(1)
	if arith.EngineForTest(arith.Posit32e2) != arith.EngineForTest(named) {
		t.Error("arith.Posit32e2 and MustByName(\"posit32es2\") hold different engines")
	}
}

// TestTablesMemBytes checks that MemBytes counts every table a build
// keeps: 2^w decoded values, the cuts, the inline rounding table (2048
// {add, mask, match, par} entries) and the per-binade search bounds
// (2049 uint16).
func TestTablesMemBytes(t *testing.T) {
	for _, tf := range tabbedFormats(t) {
		tab, _ := arith.TablesOf(tf.fast)
		n := 1 << tab.Width()
		want := n*8 + len(arith.CutsForTest(tab))*8 + 2048*32 + 2049*2
		if got := tab.MemBytes(); got != want {
			t.Errorf("%s: MemBytes = %d, want %d", tf.name, got, want)
		}
	}
	// posit8es0 by hand: 256 decoded values (2048 B), 129 cuts
	// (1032 B), the inline table (65536 B) and the search bounds
	// (4098 B).
	tab, _ := arith.TablesOf(arith.MustByName("posit8es0"))
	if got := tab.MemBytes(); got != 72714 {
		t.Errorf("posit8es0: MemBytes = %d, want 72714", got)
	}
}

// plainSearch is the boundary search without the per-binade index: a
// binary search over the whole table for the largest p with
// cut[p] <= a. It is the oracle of TestTablesLocateIndex.
func plainSearch(cut []uint64, a uint64) uint32 {
	lo, hi := uint32(0), uint32(len(cut)-1)
	for lo < hi {
		m := (lo + hi + 1) >> 1
		if cut[m] <= a {
			lo = m
		} else {
			hi = m - 1
		}
	}
	return lo
}

// TestTablesLocateIndex checks the per-binade bound of the boundary
// search: for every tabled format, the bounded search returns what the
// plain binary search returns at every boundary, one bit pattern on
// either side of it, and the first and last float64 of every binade.
// It runs on the registry's tables and on freshly built ones.
func TestTablesLocateIndex(t *testing.T) {
	for _, tf := range tabbedFormats(t) {
		t.Run(tf.name, func(t *testing.T) {
			reg, _ := arith.TablesOf(tf.fast)
			for _, src := range []struct {
				name string
				tab  *arith.Tables
			}{{"registry", reg}, {"fresh", arith.BuildTablesForTest(tf.fast)}} {
				t.Run(src.name, func(t *testing.T) {
					cut := arith.CutsForTest(src.tab)
					var probes []uint64
					for _, c := range cut {
						probes = append(probes, c-1, c, c+1)
					}
					for e := uint64(0); e < 2048; e++ {
						probes = append(probes, e<<52, e<<52|(1<<52-1))
					}
					for _, a := range probes {
						if a >= 1<<63 {
							continue // cut[0]-1 wraps; magnitudes only
						}
						if got, want := arith.SearchForTest(src.tab, a), plainSearch(cut, a); got != want {
							t.Fatalf("search(%#x) = %d, plain binary search = %d", a, got, want)
						}
					}
				})
			}
		})
	}
}
