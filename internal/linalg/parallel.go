package linalg

import (
	"sync"
	"sync/atomic"

	"positlab/internal/arith"
)

// Deterministic in-solver parallelism.
//
// The only loops sharded here are provably order-independent: CSR
// matvec rows and Cholesky trailing-update rows, where each output
// element is produced by its own strictly sequential chain of rounded
// operations and no element is read by another shard. Splitting such a
// loop across workers changes *when* each chain runs, never the chain
// itself, so results are bit-identical to the serial path for every
// worker count — the differential tests assert this for counts 1, 2,
// and 8. Reductions (Dot, norms) are NOT sharded: their accumulation
// order is the rounding order, and the paper's methodology fixes it to
// strictly left-to-right serial.
//
// The pool is bounded and lazy: no goroutines exist until a caller
// raises the worker count above 1, and at most maxWorkers ever run.

// maxWorkers bounds the pool; SetWorkers clamps to it.
const maxWorkers = 32

// minParWork is the smallest per-shard element count worth handing to
// a worker; below workers*minParWork total elements the serial path is
// faster than the handoff.
const minParWork = 2048

var (
	workerCount atomic.Int32 // 0 or 1 = serial
	poolOnce    sync.Once
	poolCh      chan func()
)

// SetWorkers sets the in-solver worker count for order-independent
// loops and returns the previous value. n <= 1 selects the serial
// path; n is clamped to the pool bound (32). Safe for concurrent use,
// but intended to be set once at startup (the experiments binary's
// -par flag) or around a test.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	if n > maxWorkers {
		n = maxWorkers
	}
	return int(workerCount.Swap(int32(n)))
}

// Workers returns the current in-solver worker count (minimum 1).
func Workers() int {
	if n := int(workerCount.Load()); n > 1 {
		return n
	}
	return 1
}

func ensurePool() {
	poolOnce.Do(func() {
		poolCh = make(chan func(), maxWorkers)
		for i := 0; i < maxWorkers; i++ {
			go func() {
				for fn := range poolCh {
					fn()
				}
			}()
		}
	})
}

// ParRows shards body, which computes in format f, over [0, n) row
// indices exactly like the package's own kernels do — callers (the
// solvers' trailing updates) must guarantee the rows are
// order-independent: each index's work is its own sequential chain of
// rounded operations and writes only state owned by that index. work
// is the element count body computes over the n rows (a row it skips
// adds none), used to decide whether sharding pays at all.
func ParRows(f arith.Format, n, work int, body func(lo, hi int)) { parRange(f, n, work, body) }

// parRange runs body, which computes in format f, over [0, n) split
// into contiguous shards across the worker pool, and returns once every
// shard completes. work is the total element count behind the n
// indices (nnz for a matvec over n rows), used to decide how many
// shards the job can amortize. Shards are disjoint, so body must only
// write state owned by its own index range. Falls back to one serial
// call when the worker count is 1, when the work is too small to pay
// for the handoff, or when f's observers sample (arith.Samples): the
// bits never depend on sharding, but which operations a sampler picks
// follows the order they reach it.
func parRange(f arith.Format, n, work int, body func(lo, hi int)) {
	w := Workers()
	if arith.Samples(f) {
		w = 1
	}
	if w > work/minParWork {
		w = work / minParWork
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	ensurePool()
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 0; k < w-1; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		fn := func() {
			defer wg.Done()
			body(lo, hi)
		}
		poolCh <- fn
	}
	body((w-1)*n/w, n) // last shard runs on the caller
	wg.Wait()
}
