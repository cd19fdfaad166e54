package linalg

import (
	"fmt"
	"math"
)

// SymEigenvalues computes all eigenvalues of a dense symmetric matrix
// by Householder tridiagonalization followed by the implicit-QL
// iteration, returned in ascending order. It is the full-spectrum
// verification path for the generated suite (Lanczos only resolves the
// extremes reliably) and for small direct checks.
//
// Only the lower triangle of a is read; a is not modified.
func SymEigenvalues(a *Dense) ([]float64, error) {
	n := a.N
	if n == 0 {
		return nil, fmt.Errorf("linalg: empty matrix")
	}
	if n == 1 {
		return []float64{a.At(0, 0)}, nil
	}
	// Working copy of the lower triangle.
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, i+1)
		for j := 0; j <= i; j++ {
			w[i][j] = a.At(i, j)
		}
	}
	d := make([]float64, n) // diagonal of the tridiagonal form
	e := make([]float64, n) // subdiagonal (e[1..n-1])

	// Householder reduction (tred1-style, eigenvalues only).
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h := 0.0
		scale := 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(w[i][k])
			}
			if scale == 0 {
				e[i] = w[i][l]
			} else {
				for k := 0; k <= l; k++ {
					w[i][k] /= scale
					h += float64(w[i][k] * w[i][k])
				}
				f := w[i][l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= float64(f * g)
				w[i][l] = f - g
				tau := 0.0
				p := make([]float64, n)
				for j := 0; j <= l; j++ {
					g = 0.0
					for k := 0; k <= j; k++ {
						g += float64(w[j][k] * w[i][k])
					}
					for k := j + 1; k <= l; k++ {
						g += float64(w[k][j] * w[i][k])
					}
					p[j] = g / h
					tau += float64(p[j] * w[i][j])
				}
				hh := tau / (2 * h)
				for j := 0; j <= l; j++ {
					f = w[i][j]
					p[j] -= float64(hh * f)
					g = p[j]
					for k := 0; k <= j; k++ {
						w[j][k] -= float64(f*p[k]) + float64(g*w[i][k])
					}
				}
			}
		} else {
			e[i] = w[i][l]
		}
		d[i] = h
	}
	for i := 0; i < n; i++ {
		d[i] = w[i][i]
	}
	return TridiagEigenvalues(d, e[1:])
}

// SymEigenvaluesSparse is SymEigenvalues on a sparse matrix, densified.
func SymEigenvaluesSparse(a *Sparse) ([]float64, error) {
	return SymEigenvalues(a.ToDense())
}
