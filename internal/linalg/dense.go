package linalg

import "positlab/internal/arith"

// Dense is a square dense float64 matrix, row-major. It backs the
// Cholesky paths (the paper's direct solver operates on dense
// symmetric matrices; the test matrices are at most ~1100×1100).
type Dense struct {
	N int
	A []float64
}

// NewDense allocates an N×N zero matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, A: make([]float64, n*n)}
}

// At returns A[i,j].
func (d *Dense) At(i, j int) float64 { return d.A[i*d.N+j] }

// Set assigns A[i,j].
func (d *Dense) Set(i, j int, v float64) { d.A[i*d.N+j] = v }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	return &Dense{N: d.N, A: append([]float64(nil), d.A...)}
}

// MatVecF64 computes y = A·x.
func (d *Dense) MatVecF64(x, y []float64) {
	checkLen(len(x), d.N)
	checkLen(len(y), d.N)
	for i := 0; i < d.N; i++ {
		row := d.A[i*d.N : (i+1)*d.N]
		s := 0.0
		for j, v := range row {
			s += float64(v * x[j])
		}
		y[i] = s
	}
}

// DenseNum is a dense matrix in a target format.
type DenseNum struct {
	F arith.Format
	N int
	A []arith.Num
}

// NewDenseNum allocates an N×N zero matrix in format f.
func NewDenseNum(f arith.Format, n int) *DenseNum {
	m := &DenseNum{F: f, N: n, A: make([]arith.Num, n*n)}
	z := f.Zero()
	for i := range m.A {
		m.A[i] = z
	}
	return m
}

// ToFormat rounds a dense float64 matrix into format f, clamping
// overflow to the largest finite value when clamp is set.
func (d *Dense) ToFormat(f arith.Format, clamp bool) *DenseNum {
	m := &DenseNum{F: f, N: d.N, A: make([]arith.Num, len(d.A))}
	for i, v := range d.A {
		if clamp {
			m.A[i] = arith.FromFloat64Clamped(f, v)
		} else {
			m.A[i] = f.FromFloat64(v)
		}
	}
	return m
}

// At returns A[i,j].
func (m *DenseNum) At(i, j int) arith.Num { return m.A[i*m.N+j] }

// Set assigns A[i,j].
func (m *DenseNum) Set(i, j int, v arith.Num) { m.A[i*m.N+j] = v }

// Row returns row i as a slice sharing the matrix's storage — the
// contiguous operand the slice kernels want (the row-oriented Cholesky
// feeds kernel calls whole row segments instead of At/Set scalars).
func (m *DenseNum) Row(i int) []arith.Num { return m.A[i*m.N : (i+1)*m.N] }

// Clone returns a deep copy.
func (m *DenseNum) Clone() *DenseNum {
	return &DenseNum{F: m.F, N: m.N, A: append([]arith.Num(nil), m.A...)}
}

// ToFloat64 converts back to a float64 dense matrix (exact).
func (m *DenseNum) ToFloat64() *Dense {
	d := NewDense(m.N)
	for i, v := range m.A {
		d.A[i] = m.F.ToFloat64(v)
	}
	return d
}

// HasBad reports any exceptional entry.
func (m *DenseNum) HasBad() bool { return HasBad(m.F, m.A) }
