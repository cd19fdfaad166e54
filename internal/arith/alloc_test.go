package arith_test

import (
	"testing"

	"positlab/internal/arith"
	"positlab/internal/shadow"
)

// TestObserveAllocs guards the observer path against per-call
// allocation: counting every scalar op and kernel call, and shadow
// sampling on the paths that measure nothing per element, must
// allocate nothing.
func TestObserveAllocs(t *testing.T) {
	base := arith.Posit16e2
	const n = 4
	x := kernelOperands(base, n, 3)
	y := kernelOperands(base, n, 4)
	buf := make([]arith.Num, n)
	rowPtr, col, val := []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3}, x
	a, b := x[0], x[1]
	kernels := []struct {
		name string
		call func(bk arith.BulkFormat)
	}{
		{"dot", func(bk arith.BulkFormat) { _ = bk.DotKernel(x, y) }},
		{"axpy", func(bk arith.BulkFormat) { copy(buf, y); bk.AxpyKernel(a, x, buf) }},
		{"scale", func(bk arith.BulkFormat) { copy(buf, x); bk.ScaleKernel(a, buf) }},
		{"muladd", func(bk arith.BulkFormat) { bk.MulAddKernel(a, x, y, buf) }},
		{"matvec", func(bk arith.BulkFormat) { bk.MatVecKernel(rowPtr, col, val, x, buf) }},
		{"trailing", func(bk arith.BulkFormat) { copy(buf, y); bk.TrailingUpdateKernel(a, x, buf) }},
		{"div", func(bk arith.BulkFormat) { copy(buf, x); bk.DivKernel(b, buf) }},
	}

	var c1, c2 arith.AtomicOpCounts
	for _, f := range []arith.Format{arith.Observe(base, &c1), arith.Observe(base, &c1, &c2)} {
		bk := arith.BulkOf(f)
		allocs := testing.AllocsPerRun(50, func() {
			_ = f.FromFloat64(1.5)
			_ = f.Add(a, b)
			_ = f.Sub(a, b)
			_ = f.Mul(a, b)
			_ = f.Div(a, b)
			_ = f.Sqrt(a)
			_ = f.MulAdd(a, b, a)
			for _, k := range kernels {
				k.call(bk)
			}
		})
		if allocs != 0 {
			t.Errorf("counting observers: %v allocations per run, want 0", allocs)
		}
	}

	// At stride 64, eleven calls of n=4 operations stay below the first
	// sampling point (index 63): no window holds a sample.
	for _, k := range kernels {
		sf, _ := shadow.Wrap(base, shadow.Config{SampleEvery: 64})
		bk := arith.BulkOf(sf)
		if allocs := testing.AllocsPerRun(10, func() { k.call(bk) }); allocs != 0 {
			t.Errorf("shadow stride 64, unsampled %s call: %v allocations, want 0", k.name, allocs)
		}
	}

	// Operations skipped as exact reach a Sampler through Exact, in
	// O(1) per call.
	for _, every := range []int{1, 64} {
		sf, _ := shadow.Wrap(base, shadow.Config{SampleEvery: every})
		skip := func() { arith.ObserveExact(sf, "trailing", arith.OpMulAdd, 48) }
		skip() // the first sampled call creates the telemetry cell
		skip()
		if allocs := testing.AllocsPerRun(20, skip); allocs != 0 {
			t.Errorf("shadow stride %d, ObserveExact: %v allocations, want 0", every, allocs)
		}
	}
}
