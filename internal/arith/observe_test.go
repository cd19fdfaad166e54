package arith_test

import (
	"sync"
	"testing"

	"positlab/internal/arith"
)

// TestInstrumentCountsAndTransparency checks that a counting observer
// tallies each scalar operation by kind, and that the observed format
// stays transparent: bit-identical results and passthrough metadata.
func TestInstrumentCountsAndTransparency(t *testing.T) {
	var c arith.AtomicOpCounts
	raw := arith.Posit16e2
	f := arith.Observe(raw, &c)
	a := f.FromFloat64(2)
	b := f.FromFloat64(3)
	sum := f.Add(a, b)
	prod := f.Mul(a, b)
	_ = f.Sub(sum, prod)
	_ = f.Div(prod, a)
	_ = f.Sqrt(prod)
	_ = f.MulAdd(a, b, sum)
	want := arith.OpCounts{Add: 2, Sub: 1, Mul: 2, Div: 1, Sqrt: 1, Conv: 2}
	if got := c.Snapshot(); got != want || got.Total() != 7 {
		t.Fatalf("counts = %+v (total %d), want %+v (total 7)", got, got.Total(), want)
	}
	if sum != raw.Add(raw.FromFloat64(2), raw.FromFloat64(3)) {
		t.Fatal("observed result differs")
	}
	if f.Name() != raw.Name() || f.Eps() != raw.Eps() {
		t.Fatal("passthrough metadata differs")
	}
}

// TestInstrumentAtomicTransparent checks the observed format never
// perturbs results even while racing: every goroutine's arithmetic must
// be bit-identical to the bare format's.
func TestInstrumentAtomicTransparent(t *testing.T) {
	var c arith.AtomicOpCounts
	bare := arith.Float64
	wrapped := arith.Observe(bare, &c)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			x := wrapped.FromFloat64(seed)
			y := wrapped.FromFloat64(seed / 3)
			if wrapped.Add(x, y) != bare.Add(x, y) ||
				wrapped.Mul(x, y) != bare.Mul(x, y) ||
				wrapped.Sqrt(x) != bare.Sqrt(x) ||
				wrapped.MulAdd(x, y, x) != bare.MulAdd(x, y, x) {
				t.Error("observed results diverge from the bare format")
			}
		}(float64(w + 1))
	}
	wg.Wait()
}

// TestAtomicOpCountsConcurrent drives one shared AtomicOpCounts from
// many goroutines — the exact shape of parallel scheduler jobs sharing
// a counter — through formats observed by it alone and alongside a
// second counter, and checks the tallies stay exact. Run under `make
// race` this doubles as the data-race proof for the observer path.
func TestAtomicOpCountsConcurrent(t *testing.T) {
	const (
		workers = 8
		perOp   = 500
	)
	var counts, other arith.AtomicOpCounts
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := arith.Observe(arith.Float64, &counts)
			if w%2 == 1 {
				f = arith.Observe(arith.Posit16e2, &other, &counts)
			}
			a, b := f.FromFloat64(3), f.FromFloat64(2)
			for i := 0; i < perOp; i++ {
				_ = f.Add(a, b)
				_ = f.Sub(a, b)
				_ = f.Mul(a, b)
				_ = f.Div(a, b)
				_ = f.Sqrt(a)
			}
		}(w)
	}
	wg.Wait()

	got := counts.Snapshot()
	want := arith.OpCounts{
		Add:  workers * perOp,
		Sub:  workers * perOp,
		Mul:  workers * perOp,
		Div:  workers * perOp,
		Sqrt: workers * perOp,
		Conv: workers * 2,
	}
	if got != want {
		t.Errorf("concurrent counts = %+v, want %+v", got, want)
	}
	if total := got.Total(); total != 5*workers*perOp {
		t.Errorf("Total() = %d, want %d", total, 5*workers*perOp)
	}
	if half := other.Snapshot(); half.Total() != got.Total()/2 || half.Conv != got.Conv/2 {
		t.Errorf("second counter = %+v, want half of %+v", half, got)
	}
}

// TestInstrumentAtomicConcurrent shares one observed format, not just
// its counter, among goroutines and checks the per-kind tallies stay
// exact and the results stay the raw format's.
func TestInstrumentAtomicConcurrent(t *testing.T) {
	var c arith.AtomicOpCounts
	f := arith.Observe(arith.Posit16e2, &c)
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := f.FromFloat64(2)
			b := f.FromFloat64(3)
			for i := 0; i < perG; i++ {
				_ = f.Add(a, b)
				_ = f.Mul(a, b)
			}
			_ = f.Sub(a, b)
			_ = f.Div(a, b)
			_ = f.Sqrt(a)
		}()
	}
	wg.Wait()
	got := c.Snapshot()
	want := arith.OpCounts{
		Add: goroutines * perG, Mul: goroutines * perG,
		Sub: goroutines, Div: goroutines, Sqrt: goroutines,
		Conv: 2 * goroutines,
	}
	if got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
	raw := arith.Posit16e2
	if f.Add(f.FromFloat64(2), f.FromFloat64(3)) != raw.Add(raw.FromFloat64(2), raw.FromFloat64(3)) {
		t.Fatal("observed result differs")
	}
}

// TestObserveFlattens checks that observing an observed format extends
// its observer list instead of nesting: one wrapper, every observer
// counting each operation once, sampling detected through the list.
func TestObserveFlattens(t *testing.T) {
	var inner, outer arith.AtomicOpCounts
	f := arith.Observe(arith.Observe(arith.Posit16e1, &inner), &outer)
	if arith.Samples(f) {
		t.Fatal("counting observers reported as sampling")
	}
	x := []arith.Num{f.One(), f.One(), f.One()}
	_ = arith.BulkOf(f).DotKernel(x, x)
	want := arith.OpCounts{Add: 3, Mul: 3}
	if inner.Snapshot() != want || outer.Snapshot() != want {
		t.Fatalf("inner %+v outer %+v, want %+v each", inner.Snapshot(), outer.Snapshot(), want)
	}
	if !arith.Samples(arith.Observe(arith.Observe(arith.Float16, nopSampler{}), &outer)) {
		t.Fatal("a sampler in the inner list not reported")
	}
}

// nopSampler selects every operation and drops it.
type nopSampler struct{}

func (nopSampler) Observe(string, arith.Op, uint64) arith.Window {
	return arith.Window{First: 0, Stride: 1}
}
func (nopSampler) Begin(string, arith.Op)                            {}
func (nopSampler) Sample(arith.Num, arith.Num, arith.Num, arith.Num) {}
func (nopSampler) End()                                              {}
func (nopSampler) Exact(string, arith.Op, uint64, uint64)            {}
