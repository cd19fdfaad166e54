package linalg

import (
	"fmt"
	"math"
	"sort"

	"positlab/internal/arith"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// Entry is one coordinate-format matrix element.
type Entry struct {
	Row, Col int
	Val      float64
}

// Sparse is a square sparse matrix in CSR with float64 entries — the
// "master" representation the experiments cast down from, mirroring the
// paper's practice of loading matrices in extended precision before
// conversion to the format under test. Symmetric matrices store both
// triangles so that matvec needs no special casing.
type Sparse struct {
	N      int
	RowPtr []int // length N+1
	Col    []int
	Val    []float64
}

// NewSparseFromEntries builds CSR from coordinate entries. Duplicate
// coordinates are summed. If symmetrize is true, each off-diagonal
// (i,j) implies (j,i) with the same value (MatrixMarket "symmetric"
// storage convention).
func NewSparseFromEntries(n int, entries []Entry, symmetrize bool) (*Sparse, error) {
	type key struct{ r, c int }
	acc := make(map[key]float64, len(entries)*2)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			return nil, fmt.Errorf("linalg: entry (%d,%d) outside %d×%d", e.Row, e.Col, n, n)
		}
		acc[key{e.Row, e.Col}] += e.Val
		if symmetrize && e.Row != e.Col {
			acc[key{e.Col, e.Row}] += e.Val
		}
	}
	s := &Sparse{N: n, RowPtr: make([]int, n+1)}
	keys := make([]key, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].r != keys[j].r {
			return keys[i].r < keys[j].r
		}
		return keys[i].c < keys[j].c
	})
	s.Col = make([]int, len(keys))
	s.Val = make([]float64, len(keys))
	for i, k := range keys {
		s.Col[i] = k.c
		s.Val[i] = acc[k]
		s.RowPtr[k.r+1]++
	}
	for i := 0; i < n; i++ {
		s.RowPtr[i+1] += s.RowPtr[i]
	}
	return s, nil
}

// NNZ returns the stored nonzero count (both triangles for symmetric).
func (s *Sparse) NNZ() int { return len(s.Val) }

// Clone returns a deep copy.
func (s *Sparse) Clone() *Sparse {
	c := &Sparse{
		N:      s.N,
		RowPtr: append([]int(nil), s.RowPtr...),
		Col:    append([]int(nil), s.Col...),
		Val:    append([]float64(nil), s.Val...),
	}
	return c
}

// At returns A[i,j] (zero when not stored). Rows are column-sorted, so
// a binary search suffices.
func (s *Sparse) At(i, j int) float64 {
	lo, hi := s.RowPtr[i], s.RowPtr[i+1]
	idx := sort.SearchInts(s.Col[lo:hi], j)
	if idx < hi-lo && s.Col[lo+idx] == j {
		return s.Val[lo+idx]
	}
	return 0
}

// MatVecF64 computes y = A·x in float64.
func (s *Sparse) MatVecF64(x, y []float64) {
	checkLen(len(x), s.N)
	checkLen(len(y), s.N)
	for i := 0; i < s.N; i++ {
		sum := 0.0
		for idx := s.RowPtr[i]; idx < s.RowPtr[i+1]; idx++ {
			sum += float64(s.Val[idx] * x[s.Col[idx]])
		}
		y[i] = sum
	}
}

// Scale multiplies every entry by alpha in place.
func (s *Sparse) Scale(alpha float64) {
	for i := range s.Val {
		s.Val[i] *= alpha
	}
}

// ScaleSym applies the two-sided diagonal scaling A ← D·A·D in place,
// where D = diag(d).
func (s *Sparse) ScaleSym(d []float64) {
	checkLen(len(d), s.N)
	for i := 0; i < s.N; i++ {
		for idx := s.RowPtr[i]; idx < s.RowPtr[i+1]; idx++ {
			s.Val[idx] *= d[i] * d[s.Col[idx]]
		}
	}
}

// Diag returns the diagonal as a dense slice.
func (s *Sparse) Diag() []float64 {
	d := make([]float64, s.N)
	for i := 0; i < s.N; i++ {
		d[i] = s.At(i, i)
	}
	return d
}

// NormInf returns the induced infinity norm: max row sum of |entries|.
func (s *Sparse) NormInf() float64 {
	m := 0.0
	for i := 0; i < s.N; i++ {
		sum := 0.0
		for idx := s.RowPtr[i]; idx < s.RowPtr[i+1]; idx++ {
			sum += math.Abs(s.Val[idx])
		}
		if sum > m {
			m = sum
		}
	}
	return m
}

// MaxAbs returns the largest entry magnitude.
func (s *Sparse) MaxAbs() float64 {
	m := 0.0
	for _, v := range s.Val {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// NormFrob returns the Frobenius norm.
func (s *Sparse) NormFrob() float64 {
	return Norm2F64(s.Val)
}

// RowNormInf returns max|A[i,:]| for each row (entry magnitudes, not
// sums) — the quantity Higham's equilibration (Algorithm 5) uses.
func (s *Sparse) RowNormInf() []float64 {
	r := make([]float64, s.N)
	for i := 0; i < s.N; i++ {
		m := 0.0
		for idx := s.RowPtr[i]; idx < s.RowPtr[i+1]; idx++ {
			if a := math.Abs(s.Val[idx]); a > m {
				m = a
			}
		}
		r[i] = m
	}
	return r
}

// IsSymmetric checks structural and numerical symmetry to a relative
// tolerance.
func (s *Sparse) IsSymmetric(tol float64) bool {
	scale := s.MaxAbs()
	for i := 0; i < s.N; i++ {
		for idx := s.RowPtr[i]; idx < s.RowPtr[i+1]; idx++ {
			j := s.Col[idx]
			if math.Abs(s.Val[idx]-s.At(j, i)) > tol*scale {
				return false
			}
		}
	}
	return true
}

// Entries returns the coordinate list of stored entries.
func (s *Sparse) Entries() []Entry {
	out := make([]Entry, 0, len(s.Val))
	for i := 0; i < s.N; i++ {
		for idx := s.RowPtr[i]; idx < s.RowPtr[i+1]; idx++ {
			out = append(out, Entry{Row: i, Col: s.Col[idx], Val: s.Val[idx]})
		}
	}
	return out
}

// ToDense expands to a dense float64 matrix (row-major).
func (s *Sparse) ToDense() *Dense {
	d := NewDense(s.N)
	for i := 0; i < s.N; i++ {
		for idx := s.RowPtr[i]; idx < s.RowPtr[i+1]; idx++ {
			d.Set(i, s.Col[idx], s.Val[idx])
		}
	}
	return d
}

// SparseNum is a sparse matrix cast into a target format.
type SparseNum struct {
	F      arith.Format
	N      int
	RowPtr []int
	Col    []int
	Val    []arith.Num
}

// ToFormat rounds every entry into format f. When clamp is true,
// magnitudes beyond f's largest finite value are clamped to it (the
// mixed-precision loading rule); otherwise they become Inf/NaR and the
// caller must detect the failure.
func (s *Sparse) ToFormat(f arith.Format, clamp bool) *SparseNum {
	m := &SparseNum{
		F:      f,
		N:      s.N,
		RowPtr: s.RowPtr,
		Col:    s.Col,
		Val:    make([]arith.Num, len(s.Val)),
	}
	for i, v := range s.Val {
		if clamp {
			m.Val[i] = arith.FromFloat64Clamped(f, v)
		} else {
			m.Val[i] = f.FromFloat64(v)
		}
	}
	return m
}

// MatVec computes y = A·x in the matrix's format, rounding after every
// multiply and add. Each row accumulates strictly left-to-right.
func (m *SparseNum) MatVec(x, y []arith.Num) {
	checkLen(len(x), m.N)
	checkLen(len(y), m.N)
	arith.BulkOf(m.F).MatVecKernel(m.RowPtr, m.Col, m.Val, x, y)
}

// NNZ returns the stored nonzero count.
func (m *SparseNum) NNZ() int { return len(m.Val) }

// MatVecT computes y = Aᵀ·x in the matrix's format by scattering along
// rows. Note the accumulation order differs from MatVec even for
// symmetric matrices, so results may differ in the last rounding.
func (m *SparseNum) MatVecT(x, y []arith.Num) {
	checkLen(len(x), m.N)
	checkLen(len(y), m.N)
	f := m.F
	z := f.Zero()
	for i := range y {
		y[i] = z
	}
	for i := 0; i < m.N; i++ {
		xi := x[i]
		if f.IsZero(xi) {
			continue
		}
		for idx := m.RowPtr[i]; idx < m.RowPtr[i+1]; idx++ {
			j := m.Col[idx]
			y[j] = f.Add(y[j], f.Mul(m.Val[idx], xi))
		}
	}
}

// HasBad reports any exceptional entry (overflow during conversion).
func (m *SparseNum) HasBad() bool {
	return HasBad(m.F, m.Val)
}
