package solvers_test

import (
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/solvers"
)

// The paper's mixed-precision motivation (§III): factorization is the
// O(n³) stage, refinement is O(n²) per iteration. Measure the actual
// operation counts of our Cholesky and triangular solves and check the
// scaling exponents.
func TestOpCountScaling(t *testing.T) {
	countsFor := func(n int) (factor, solve uint64) {
		a := laplacian1D(n)
		_, b := onesRHS(a)
		var c arith.AtomicOpCounts
		f := arith.Observe(arith.Posit16e2, &c)
		an := a.ToDense().ToFormat(f, false)
		r, err := solvers.Cholesky(an)
		if err != nil {
			t.Fatal(err)
		}
		factor = c.Snapshot().Total()
		bn := linalg.VecFromFloat64(f, b)
		before := c.Snapshot().Total()
		y := solvers.SolveLowerT(r, bn)
		_ = solvers.SolveUpper(r, y)
		solve = c.Snapshot().Total() - before
		return factor, solve
	}

	f1, s1 := countsFor(40)
	f2, s2 := countsFor(80)

	// Factorization ~ n³/3 pairs: doubling n multiplies work by ~8.
	factRatio := float64(f2) / float64(f1)
	if factRatio < 5.5 || factRatio > 9.5 {
		t.Errorf("factorization op ratio at 2x n = %.2f, want ~8 (O(n³))", factRatio)
	}
	// Triangular solves ~ n²: doubling n multiplies work by ~4.
	solveRatio := float64(s2) / float64(s1)
	if solveRatio < 3.2 || solveRatio > 4.8 {
		t.Errorf("solve op ratio at 2x n = %.2f, want ~4 (O(n²))", solveRatio)
	}
	// And the split is lopsided the way the paper's motivation needs.
	if f2 < 5*s2 {
		t.Errorf("factorization (%d ops) should dwarf one solve (%d ops)", f2, s2)
	}
}
