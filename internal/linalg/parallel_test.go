package linalg_test

import (
	"sort"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/posit"
)

func TestSetWorkersClamp(t *testing.T) {
	prev := linalg.SetWorkers(1)
	defer linalg.SetWorkers(prev)
	if linalg.Workers() != 1 {
		t.Fatalf("Workers = %d, want 1", linalg.Workers())
	}
	linalg.SetWorkers(0)
	if linalg.Workers() != 1 {
		t.Fatalf("Workers after SetWorkers(0) = %d, want 1", linalg.Workers())
	}
	linalg.SetWorkers(1 << 20)
	if linalg.Workers() != 32 {
		t.Fatalf("Workers after huge SetWorkers = %d, want clamp 32", linalg.Workers())
	}
	if got := linalg.SetWorkers(4); got != 32 {
		t.Fatalf("SetWorkers returned previous = %d, want 32", got)
	}
}

// TestParRowsCoverage asserts the sharding covers [0, n) exactly once
// with disjoint contiguous ranges, for worker counts and sizes around
// the serial-fallback threshold.
func TestParRowsCoverage(t *testing.T) {
	prev := linalg.Workers()
	defer linalg.SetWorkers(prev)
	type span struct{ lo, hi int }
	for _, workers := range []int{1, 2, 3, 8} {
		linalg.SetWorkers(workers)
		for _, n := range []int{0, 1, 7, 100, 10000} {
			for _, perRow := range []int{1, 3, 5000} {
				var mu chan span = make(chan span, 64)
				linalg.ParRows(arith.Float64, n, n*perRow, func(lo, hi int) { mu <- span{lo, hi} })
				close(mu)
				var spans []span
				for s := range mu {
					spans = append(spans, s)
				}
				sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
				at := 0
				for _, s := range spans {
					if s.lo != at || s.hi <= s.lo {
						t.Fatalf("workers=%d n=%d perRow=%d: bad shard %+v (cursor %d, all %v)",
							workers, n, perRow, s, at, spans)
					}
					at = s.hi
				}
				if at != n {
					t.Fatalf("workers=%d n=%d perRow=%d: covered [0,%d), want [0,%d)", workers, n, perRow, at, n)
				}
			}
		}
	}
}

// TestMatVecParallelDeterminism asserts the sharded CSR matvec is
// bit-for-bit identical across worker counts 1, 2, and 8 — the
// determinism contract the experiments' reproducibility rests on. The
// problem is sized so the pool actually engages (nnz well above the
// per-shard minimum).
func TestMatVecParallelDeterminism(t *testing.T) {
	prev := linalg.Workers()
	defer linalg.SetWorkers(prev)
	n := 8000
	s := laplacian1D(n)
	for _, f := range []arith.Format{
		arith.Posit16e2,
		arith.Float32,
		arith.Posit(posit.Posit16e2), // generic scalar-fallback kernels
	} {
		sn := s.ToFormat(f, false)
		x := make([]arith.Num, n)
		for i := range x {
			x[i] = f.FromFloat64(float64(i%17) - 8.25)
		}
		var ref []arith.Num
		for _, w := range []int{1, 2, 8} {
			linalg.SetWorkers(w)
			y := linalg.NewVec(f, n)
			sn.MatVec(x, y)
			if ref == nil {
				ref = append([]arith.Num(nil), y...)
				continue
			}
			for i := range y {
				if y[i] != ref[i] {
					t.Fatalf("%s: MatVec with %d workers differs at row %d: %#x vs %#x",
						f.Name(), w, i, y[i], ref[i])
				}
			}
		}
	}
}
