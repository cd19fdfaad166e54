package linalg

// SolveCholF64 solves (RᵀR)·x = y in float64 given the upper factor
// R, in place: y holds the right-hand side on entry and x on return.
func SolveCholF64(r *Dense, y []float64) {
	n := r.N
	// Forward: Rᵀ·z = y, swept over rows of R. Once z[j] is final, row j
	// subtracts R[j][i]·z[j] from every later entry i, so each entry
	// still subtracts its terms from y[i] in ascending j — the roundings,
	// in order, of the per-entry column sweep — over contiguous rows.
	for j := 0; j < n; j++ {
		rj := r.A[j*n : (j+1)*n]
		zj := y[j] / rj[j]
		y[j] = zj
		yi, rji := y[j+1:], rj[j+1:]
		for i := range yi {
			yi[i] -= rji[i] * zj
		}
	}
	// Backward: R·x = z.
	for i := n - 1; i >= 0; i-- {
		ri := r.A[i*n : (i+1)*n]
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * y[j]
		}
		y[i] = s / ri[i]
	}
}
