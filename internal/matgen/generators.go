package matgen

import (
	"fmt"
	"math"

	"positlab/internal/linalg"
)

// General-purpose SPD generators for users bringing their own
// workloads, beyond the Table I replica suite.

// Poisson2D builds the standard 5-point finite-difference Laplacian on
// an nx×ny grid (Dirichlet boundaries): SPD, condition number
// ~(4/π²)·max(nx,ny)², the classic PDE test matrix.
func Poisson2D(nx, ny int) (*linalg.Sparse, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("matgen: grid %dx%d invalid", nx, ny)
	}
	n := nx * ny
	idx := func(i, j int) int { return i*ny + j }
	var entries []linalg.Entry
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			entries = append(entries, linalg.Entry{Row: idx(i, j), Col: idx(i, j), Val: 4})
			if i+1 < nx {
				entries = append(entries, linalg.Entry{Row: idx(i, j), Col: idx(i+1, j), Val: -1})
			}
			if j+1 < ny {
				entries = append(entries, linalg.Entry{Row: idx(i, j), Col: idx(i, j+1), Val: -1})
			}
		}
	}
	return linalg.NewSparseFromEntries(n, entries, true)
}

// RandomSPD builds a synthetic SPD matrix with a prescribed condition
// number, 2-norm and approximate per-row fill, using the same
// spectrum + Givens-sweep construction as the Table I replicas.
// IntrinsicCond controls how much of the conditioning survives
// diagonal equilibration (<= 0 picks min(cond, 100)).
func RandomSPD(n int, cond, norm2 float64, nnzPerRow int, intrinsicCond float64, seed uint64) (*linalg.Sparse, error) {
	if n < 2 {
		return nil, fmt.Errorf("matgen: n = %d too small", n)
	}
	if cond < 1 || norm2 <= 0 {
		return nil, fmt.Errorf("matgen: cond %g / norm %g invalid", cond, norm2)
	}
	if nnzPerRow < 1 {
		nnzPerRow = 4
	}
	t := Target{
		Name:          fmt.Sprintf("random-%d", seed),
		Cond:          cond,
		N:             n,
		Norm2:         norm2,
		NNZ:           n * nnzPerRow,
		IntrinsicCond: intrinsicCond,
		Seed:          seed,
	}
	m := Generate(t)
	return m.A, nil
}

// ConvectionDiffusion1D builds the upwind finite-difference
// discretization of -u” + 2p·u' on n interior points: the tridiagonal
// nonsymmetric matrix with diagonal 2+2ph, subdiagonal -(1+2ph) and
// superdiagonal -1 (h = 1/(n+1), p the Peclet number). At p = 0 it is
// the symmetric Laplacian; growing p makes it increasingly
// nonsymmetric, the regime where Bi-CG's iterates grow (paper §VI).
func ConvectionDiffusion1D(n int, peclet float64) (*linalg.Sparse, error) {
	if n < 2 {
		return nil, fmt.Errorf("matgen: n = %d too small", n)
	}
	if peclet < 0 {
		return nil, fmt.Errorf("matgen: negative Peclet number %g", peclet)
	}
	h := 1.0 / float64(n+1)
	c := float64(2 * peclet * h)
	var entries []linalg.Entry
	for i := 0; i < n; i++ {
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 2 + c})
		if i > 0 {
			entries = append(entries, linalg.Entry{Row: i, Col: i - 1, Val: -(1 + c)})
		}
		if i+1 < n {
			entries = append(entries, linalg.Entry{Row: i, Col: i + 1, Val: -1})
		}
	}
	return linalg.NewSparseFromEntries(n, entries, false)
}

// Diagonal builds a diagonal SPD matrix with a log-uniform spectrum —
// the trivially-solvable extreme of the study, useful as a control.
func Diagonal(n int, cond, norm2 float64, seed uint64) (*linalg.Sparse, error) {
	if n < 1 || cond < 1 || norm2 <= 0 {
		return nil, fmt.Errorf("matgen: invalid diagonal parameters")
	}
	r := &rng{state: seed}
	var entries []linalg.Entry
	logMin := math.Log(norm2 / cond)
	logMax := math.Log(norm2)
	for i := 0; i < n; i++ {
		f := 0.0
		if n > 1 {
			f = float64(i) / float64(n-1)
		}
		v := exp(logMin + float64((logMax-logMin)*f))
		if i == 0 {
			v = norm2 / cond
		}
		if i == n-1 {
			v = norm2
		}
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: v})
	}
	// Shuffle positions so the extremes are not adjacent.
	p := r.perm(n)
	for i := range entries {
		entries[i].Row = p[i]
		entries[i].Col = p[i]
	}
	return linalg.NewSparseFromEntries(n, entries, false)
}
