package linalg

import "math"

// cholMergeGap is the shortest gap of zeros between two nonzero
// entries of a factor row that the solves skip; a shorter gap is swept
// as if it were nonzero. Starting a run costs a few loads and bounds
// checks, about what sweeping a few zeros costs, and merging the short
// gaps keeps each row of a dense factor (Table III's plat362 and
// msc00726) one or a few runs, so its solve costs what a sweep over
// every entry does.
const cholMergeGap = 8

// CholF64 is an upper Cholesky factor R in float64, prepared for
// repeated solves of (RᵀR)·x = y. NewCholF64 indexes, once, the runs
// of nonzero entries right of the diagonal in each row of R, and Solve
// sweeps only those, so a solve with a sparse factor costs O(nnz)
// rather than O(n²). The index holds no copy of R's values: R must not
// change while its CholF64 is in use. A CholF64 is not safe for
// concurrent use.
type CholF64 struct {
	r       *Dense
	nonzero runIndex  // the nonzero runs, gaps shorter than cholMergeGap merged
	every   runIndex  // one run [j+1, n) per row: every entry
	saved   []float64 // the right-hand side, for a rerun over every entry
}

// runIndex lists the column runs right of the diagonal that a sweep
// visits in each row of an upper factor: row j's runs are the
// half-open intervals [b[k], b[k+1]) for k = row[j], row[j]+2, …,
// row[j+1]−2, in ascending order.
type runIndex struct {
	row []int32
	b   []int32
}

// NewCholF64 indexes the upper factor r for Solve.
func NewCholF64(r *Dense) *CholF64 {
	n := r.N
	c := &CholF64{
		r:       r,
		nonzero: runIndex{row: make([]int32, n+1)},
		every:   runIndex{row: make([]int32, n+1), b: make([]int32, 0, 2*n)},
		saved:   make([]float64, n),
	}
	nz := &c.nonzero
	for j := 0; j < n; j++ {
		rj, start := r.A[j*n:(j+1)*n], len(nz.b)
		for i := j + 1; i < n; i++ {
			if rj[i] == 0 {
				continue
			}
			if end := len(nz.b) - 1; end > start && i-int(nz.b[end]) < cholMergeGap {
				nz.b[end] = int32(i + 1) // the gap is short: extend the run
			} else {
				nz.b = append(nz.b, int32(i), int32(i+1))
			}
		}
		nz.row[j+1] = int32(len(nz.b))
		c.every.b = append(c.every.b, int32(j+1), int32(n))
		c.every.row[j+1] = int32(len(c.every.b))
	}
	return c
}

// Solve solves (RᵀR)·x = y in place: y holds the right-hand side on
// entry and x on return, bit for bit the x of a sweep over every entry
// of R.
//
// Skipping a zero R entry skips subtracting a product ±0·v from a
// running value s. That changes nothing unless v is not finite (the
// product is NaN) or s is −0 (−0 − (−0) = +0). So a skipped product can
// only leave −0 where the full sweep holds +0, and no later
// subtraction turns +0 into −0: a running value that differs reaches
// its division as −0. The sweep over the nonzero runs therefore stops
// at the first −0 numerator or non-finite quotient, and Solve restores
// y and reruns the same sweep over every entry.
func (c *CholF64) Solve(y []float64) {
	checkLen(len(y), c.r.N)
	copy(c.saved, y)
	if c.nonzero.sweep(c.r, y, true) {
		return
	}
	copy(y, c.saved)
	c.every.sweep(c.r, y, false)
}

// sweep solves (RᵀR)·x = y in place over the runs of ix. With stop
// set it returns false, y part-swept, at the first division whose
// numerator is −0 or whose quotient is not finite.
func (ix *runIndex) sweep(r *Dense, y []float64, stop bool) bool {
	n := r.N
	// Forward: Rᵀ·z = y, swept over rows of R. Once z[j] is final, row j
	// subtracts R[j][i]·z[j] from every later entry i, so each entry
	// still subtracts its terms from y[i] in ascending j — the roundings,
	// in order, of the per-entry column sweep — over contiguous rows.
	for j := 0; j < n; j++ {
		rj := r.A[j*n : (j+1)*n]
		zj := y[j] / rj[j]
		if stop && !exactSkips(y[j], zj) {
			return false
		}
		y[j] = zj
		b := ix.b[ix.row[j]:ix.row[j+1]]
		for k := 0; k+1 < len(b); k += 2 {
			ys := y[b[k]:b[k+1]]
			rs := rj[b[k]:b[k+1]]
			rs = rs[:len(ys)]
			for i := range ys {
				ys[i] -= float64(rs[i] * zj)
			}
		}
	}
	// Backward: R·x = z, each entry's terms in ascending j.
	for i := n - 1; i >= 0; i-- {
		ri := r.A[i*n : (i+1)*n]
		s := y[i]
		b := ix.b[ix.row[i]:ix.row[i+1]]
		for k := 0; k+1 < len(b); k += 2 {
			rs := ri[b[k]:b[k+1]]
			xs := y[b[k]:b[k+1]]
			xs = xs[:len(rs)]
			for j, v := range rs {
				s -= float64(v * xs[j])
			}
		}
		xi := s / ri[i]
		if stop && !exactSkips(s, xi) {
			return false
		}
		y[i] = xi
	}
	return true
}

// exactSkips reports whether the skipped zeros of R leave a division's
// numerator num and quotient q as a sweep over every entry computes
// them: num is not −0 and q is finite.
func exactSkips(num, q float64) bool {
	return math.Float64bits(num) != 1<<63 && math.Abs(q) <= math.MaxFloat64
}
