package arith

import (
	"fmt"
	"sync/atomic"
)

// Op is the kind of a format operation as an Observer sees it.
type Op uint8

// Operation kinds. OpMulAdd is the fused dispatch fl(fl(a·b)+c): one
// Mul and one Add in the operation counts, one measured operation in
// shadow telemetry (its reference is the exact a·b+c, so its error can
// legitimately exceed half an ulp).
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpSqrt
	OpMulAdd
	OpFromFloat64
	numOps
)

var opNames = [numOps]string{"add", "sub", "mul", "div", "sqrt", "muladd", "fromfloat64"}

func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// An Observer watches the arithmetic of a format wrapped by Observe.
// Before every scalar operation and kernel call runs, and for the
// operations a caller skips as exact (ObserveExact), Observe is told
// its site ("scalar" for a scalar operation, else the kernel: "dot",
// "axpy", "scale", "muladd", "matvec", "trailing" or "div"), its kind
// and its operation count n. The returned Window asks for some of
// those n operations; only a Sampler's windows are answered, and the
// zero Window asks for none.
type Observer interface {
	Observe(site string, op Op, n uint64) Window
}

// A Window selects the operations First, First+Stride, First+2·Stride,
// ... below n of one observed call, counted in the call's defining
// scalar-op order (see BulkFormat). A zero Stride selects none.
type Window struct{ First, Stride uint64 }

// A Sampler is an Observer that is handed the operations its windows
// select. Those of one call arrive between Begin and End, all at site
// and of kind op: Sample receives each with its operands and the
// result the format computes for it, got = op(a, b, c), unused
// operands being Num(0). Exact instead receives n selected operations
// at once whose results are known without evaluating them: bad of
// them are non-finite and the rest equal their exact values.
// FromFloat64 conversions are told but never sampled.
type Sampler interface {
	Observer
	Begin(site string, op Op)
	Sample(a, b, c, got Num)
	End()
	Exact(site string, op Op, n, bad uint64)
}

// OpCounts tallies the arithmetic performed through an observed
// Format. The paper's mixed-precision motivation rests on an operation
// count split — "perform the O(n³) work (i.e. LU factorization) in a
// lower precision ... and refine the solution by O(n²) refinement
// iterations" (§III) — which AtomicOpCounts verifies directly.
type OpCounts struct {
	Add, Sub, Mul, Div, Sqrt uint64
	Conv                     uint64 // FromFloat64 conversions
}

// Total returns the sum over all operation kinds (excluding
// conversions).
func (o OpCounts) Total() uint64 {
	return o.Add + o.Sub + o.Mul + o.Div + o.Sqrt
}

// AtomicOpCounts is the counting Observer: every observed operation
// increments its kind's counter, a MulAdd counting one Mul and one Add
// and a kernel call adding its per-element tally in one batch. It is
// safe for concurrent use, so parallel jobs or sharded solver loops
// can share one.
type AtomicOpCounts struct {
	n [numOps]atomic.Uint64 // by Op; OpMulAdd is never incremented
}

// Observe counts n operations of kind op.
func (a *AtomicOpCounts) Observe(_ string, op Op, n uint64) Window {
	if op == OpMulAdd {
		a.n[OpMul].Add(n)
		a.n[OpAdd].Add(n)
	} else {
		a.n[op].Add(n)
	}
	return Window{}
}

// Snapshot returns a point-in-time copy of the counters.
func (a *AtomicOpCounts) Snapshot() OpCounts {
	return OpCounts{
		Add:  a.n[OpAdd].Load(),
		Sub:  a.n[OpSub].Load(),
		Mul:  a.n[OpMul].Load(),
		Div:  a.n[OpDiv].Load(),
		Sqrt: a.n[OpSqrt].Load(),
		Conv: a.n[OpFromFloat64].Load(),
	}
}

// observed is the one format wrapper: f with a list of observers.
type observed struct {
	Format
	bk       BulkFormat
	obs      []observer
	sampling bool // some observer is a Sampler
}

// observer pairs an Observer with its Sampler view (nil when it does
// not sample).
type observer struct {
	Observer
	s Sampler
}

// Observe wraps f so that every observer in obs is told of each
// operation before it runs (see Observer). The wrapper implements
// BulkFormat and is transparent: every result, scalar or kernel, is
// f's own. A Sampler's selected operations are handed over by
// replaying them on f's scalar operations, which the BulkFormat
// contract makes bit-identical to the kernel, so the replays reach no
// observer and nothing is counted twice. Observing an observed format
// extends its list. The wrapper is safe for concurrent use wherever f
// and the observers are.
func Observe(f Format, obs ...Observer) Format {
	o := &observed{Format: f}
	if in, ok := f.(*observed); ok {
		o.Format = in.Format
		o.obs = append(o.obs, in.obs...)
	}
	for _, ob := range obs {
		s, _ := ob.(Sampler)
		o.obs = append(o.obs, observer{ob, s})
		o.sampling = o.sampling || s != nil
	}
	o.sampling = o.sampling || Samples(f)
	o.bk = BulkOf(o.Format)
	return o
}

// Samples reports whether f is an observed format with a Sampler among
// its observers. A Sampler counts the non-finite results it is handed,
// so the Cholesky factor rescans a row for one on such a format before
// it skips the row's update (see solvers.CholeskyCtx).
func Samples(f Format) bool {
	o, ok := f.(*observed)
	return ok && o.sampling
}

// ObserveExact tells f's observers of n operations of kind op at site
// that the caller skips because their results are known: each would
// return a finite operand unchanged, as a zero-multiplier row of a
// Cholesky trailing update does, so each is exact and none is bad.
// Every observer is told of all n at once, and a Sampler whose window
// selects k of them gets Exact(site, op, k, 0). The cost is O(1) per
// call, and one type assertion when f is not observed.
func ObserveExact(f Format, site string, op Op, n uint64) {
	o, ok := f.(*observed)
	if !ok || n == 0 {
		return
	}
	for _, ob := range o.obs {
		if w := ob.Observe(site, op, n); w.Stride != 0 && ob.s != nil && w.First < n {
			ob.s.Exact(site, op, (n-1-w.First)/w.Stride+1, 0)
		}
	}
}

// begin tells ob of n operations of kind op at site and, when ob is a
// Sampler whose window selects some of them, opens their delivery.
func (ob observer) begin(site string, op Op, n uint64) (Window, bool) {
	w := ob.Observe(site, op, n)
	if w.Stride == 0 || ob.s == nil {
		return w, false
	}
	ob.s.Begin(site, op)
	return w, true
}

// --- scalar operations ---

// scalar tells the observers of one scalar operation and hands it to
// each Sampler that selects it, evaluated on the inner format.
func (o *observed) scalar(op Op, a, b, c Num) {
	for _, ob := range o.obs {
		if w := ob.Observe("scalar", op, 1); w.Stride != 0 && ob.s != nil {
			ob.s.Begin("scalar", op)
			ob.s.Sample(a, b, c, o.eval(op, a, b, c))
			ob.s.End()
		}
	}
}

// eval runs one scalar operation on the inner format.
func (o *observed) eval(op Op, a, b, c Num) Num {
	f := o.Format
	switch op {
	case OpAdd:
		return f.Add(a, b)
	case OpSub:
		return f.Sub(a, b)
	case OpMul:
		return f.Mul(a, b)
	case OpDiv:
		return f.Div(a, b)
	case OpSqrt:
		return f.Sqrt(a)
	}
	return f.MulAdd(a, b, c)
}

func (o *observed) FromFloat64(x float64) Num {
	for _, ob := range o.obs {
		ob.Observe("scalar", OpFromFloat64, 1)
	}
	return o.Format.FromFloat64(x)
}

func (o *observed) Add(a, b Num) Num {
	o.scalar(OpAdd, a, b, 0)
	return o.Format.Add(a, b)
}

func (o *observed) Sub(a, b Num) Num {
	o.scalar(OpSub, a, b, 0)
	return o.Format.Sub(a, b)
}

func (o *observed) Mul(a, b Num) Num {
	o.scalar(OpMul, a, b, 0)
	return o.Format.Mul(a, b)
}

func (o *observed) Div(a, b Num) Num {
	o.scalar(OpDiv, a, b, 0)
	return o.Format.Div(a, b)
}

func (o *observed) Sqrt(a Num) Num {
	o.scalar(OpSqrt, a, 0, 0)
	return o.Format.Sqrt(a)
}

func (o *observed) MulAdd(a, b, c Num) Num {
	o.scalar(OpMulAdd, a, b, c)
	return o.Format.MulAdd(a, b, c)
}

// --- reduction kernels ---
//
// A selected operation of a dot or matvec reads the running
// accumulator, so it is recovered by replaying the defining MulAdd
// chain on the inner format up to the last selected operation.

func (o *observed) DotKernel(x, y []Num) Num {
	n := uint64(len(x))
	for _, ob := range o.obs {
		w, ok := ob.begin("dot", OpMulAdd, n)
		if !ok {
			continue
		}
		f, next := o.Format, w.First
		acc := f.Zero()
		for i := uint64(0); next < n; i++ {
			prev := acc
			acc = f.MulAdd(x[i], y[i], prev)
			if i == next {
				ob.s.Sample(x[i], y[i], prev, acc)
				next += w.Stride
			}
		}
		ob.s.End()
	}
	return o.bk.DotKernel(x, y)
}

func (o *observed) MatVecKernel(rowPtr, col []int, val []Num, x, y []Num) {
	if len(rowPtr) < 2 {
		o.bk.MatVecKernel(rowPtr, col, val, x, y)
		return
	}
	base := rowPtr[0]
	nnz := uint64(rowPtr[len(rowPtr)-1] - base)
	for _, ob := range o.obs {
		w, ok := ob.begin("matvec", OpMulAdd, nnz)
		if !ok {
			continue
		}
		f, next := o.Format, w.First
		for i := 0; i+1 < len(rowPtr) && next < nnz; i++ {
			// Rows are independent accumulator chains: only rows that
			// contain a selected operation are replayed.
			if next >= uint64(rowPtr[i+1]-base) {
				continue
			}
			acc := f.Zero()
			for idx := rowPtr[i]; idx < rowPtr[i+1] && next < nnz; idx++ {
				prev := acc
				acc = f.MulAdd(val[idx], x[col[idx]], prev)
				if uint64(idx-base) == next {
					ob.s.Sample(val[idx], x[col[idx]], prev, acc)
					next += w.Stride
				}
			}
		}
		ob.s.End()
	}
	o.bk.MatVecKernel(rowPtr, col, val, x, y)
}

// --- elementwise kernels ---
//
// A selected element is replayed as its scalar operation before the
// kernel overwrites its operands.

// sampleMulAdd hands each Sampler the selected elements of the
// elementwise MulAdd(alpha, x[i], y[i]) at site.
func (o *observed) sampleMulAdd(site string, alpha Num, x, y []Num) {
	n := uint64(len(x))
	for _, ob := range o.obs {
		if w, ok := ob.begin(site, OpMulAdd, n); ok {
			for i := w.First; i < n; i += w.Stride {
				ob.s.Sample(alpha, x[i], y[i], o.Format.MulAdd(alpha, x[i], y[i]))
			}
			ob.s.End()
		}
	}
}

func (o *observed) AxpyKernel(alpha Num, x, y []Num) {
	o.sampleMulAdd("axpy", alpha, x, y)
	o.bk.AxpyKernel(alpha, x, y)
}

func (o *observed) ScaleKernel(alpha Num, x []Num) {
	n := uint64(len(x))
	for _, ob := range o.obs {
		if w, ok := ob.begin("scale", OpMul, n); ok {
			for i := w.First; i < n; i += w.Stride {
				ob.s.Sample(alpha, x[i], 0, o.Format.Mul(alpha, x[i]))
			}
			ob.s.End()
		}
	}
	o.bk.ScaleKernel(alpha, x)
}

func (o *observed) MulAddKernel(alpha Num, x, y, dst []Num) {
	o.sampleMulAdd("muladd", alpha, x, y)
	o.bk.MulAddKernel(alpha, x, y, dst)
}

func (o *observed) TrailingUpdateKernel(nalpha Num, x, w []Num) {
	o.sampleMulAdd("trailing", nalpha, x, w)
	o.bk.TrailingUpdateKernel(nalpha, x, w)
}

func (o *observed) DivKernel(alpha Num, x []Num) {
	n := uint64(len(x))
	for _, ob := range o.obs {
		if w, ok := ob.begin("div", OpDiv, n); ok {
			for i := w.First; i < n; i += w.Stride {
				ob.s.Sample(x[i], alpha, 0, o.Format.Div(x[i], alpha))
			}
			ob.s.End()
		}
	}
	o.bk.DivKernel(alpha, x)
}
