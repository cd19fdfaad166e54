package solvers

import (
	"positlab/internal/posit"
)

// CGQuire is conjugate gradients for posit formats with every inner
// product and matrix-vector row sum accumulated exactly in the quire
// and rounded once — the deferred-rounding configuration the paper
// deliberately excluded from its headline comparison (§II-C: "we offer
// our experiments operate without this assumption"). Running it next
// to the round-per-op CG quantifies exactly what that methodology
// choice cost posits.
type CGQuire struct {
	C posit.Config
	// RowPtr/Col/Val: CSR matrix in the posit format.
	RowPtr []int
	Col    []int
	Val    []posit.Bits
	N      int
}

// NewCGQuire casts a float64 CSR (rowPtr/col/val triplets) into the
// format.
func NewCGQuire(c posit.Config, rowPtr, col []int, val []float64) *CGQuire {
	v := make([]posit.Bits, len(val))
	for i, x := range val {
		v[i] = c.FromFloat64(x)
	}
	return &CGQuire{C: c, RowPtr: rowPtr, Col: col, Val: v, N: len(rowPtr) - 1}
}

// matVec computes y = A·x with one quire per row (fused dot product).
func (m *CGQuire) matVec(q *posit.Quire, x, y []posit.Bits) {
	for i := 0; i < m.N; i++ {
		q.Reset()
		for idx := m.RowPtr[i]; idx < m.RowPtr[i+1]; idx++ {
			q.AddProduct(m.Val[idx], x[m.Col[idx]])
		}
		y[i] = q.Round()
	}
}

// dot computes <x, y> through the quire.
func (m *CGQuire) dot(q *posit.Quire, x, y []posit.Bits) posit.Bits {
	q.Reset()
	for i := range x {
		q.AddProduct(x[i], y[i])
	}
	return q.Round()
}

// Solve runs Algorithm 1 with quire-fused reductions. Vector updates
// (axpy) still round per element, as fused vector updates are not part
// of the posit standard's quire contract.
func (m *CGQuire) Solve(b []posit.Bits, tol float64, maxIter int) CGResult {
	c := m.C
	n := m.N
	q := c.NewQuire()

	x := make([]posit.Bits, n)
	for i := range x {
		x[i] = c.Zero()
	}
	r := append([]posit.Bits(nil), b...)
	p := append([]posit.Bits(nil), b...)
	ap := make([]posit.Bits, n)

	rr := m.dot(q, r, r)
	normB2 := c.ToFloat64(rr)
	thresh := tol * tol * normB2

	res := CGResult{}
	bad := func(v posit.Bits) bool { return c.IsNaR(v) }
	if bad(rr) {
		res.Failed = true
		res.X = toFloat64s(c, x)
		return res
	}
	if c.ToFloat64(rr) <= thresh {
		// x₀ = 0 already meets tol (tol ≥ 1, or b = 0): its residual
		// is ‖b‖/‖b‖ = 1, or 0 when b = 0.
		res.Converged = true
		if normB2 > 0 {
			res.RelResidual = sqrtf(c.ToFloat64(rr) / normB2)
		}
		res.X = toFloat64s(c, x)
		return res
	}

	for k := 0; k < maxIter; k++ {
		m.matVec(q, p, ap)
		pap := m.dot(q, p, ap)
		alpha := c.Div(rr, pap)
		if bad(alpha) {
			res.Iterations = k + 1
			res.Failed = true
			break
		}
		negAlpha := c.Neg(alpha)
		for i := range x {
			x[i] = c.Add(x[i], c.Mul(alpha, p[i]))
			r[i] = c.Add(r[i], c.Mul(negAlpha, ap[i]))
		}
		rrNew := m.dot(q, r, r)
		if bad(rrNew) {
			res.Iterations = k + 1
			res.Failed = true
			break
		}
		res.Iterations = k + 1
		if c.ToFloat64(rrNew) <= thresh {
			res.Converged = true
			rr = rrNew
			break
		}
		beta := c.Div(rrNew, rr)
		if bad(beta) {
			res.Failed = true
			break
		}
		for i := range p {
			p[i] = c.Add(r[i], c.Mul(beta, p[i]))
		}
		rr = rrNew
	}
	res.X = toFloat64s(c, x)
	if normB2 > 0 {
		res.RelResidual = sqrtf(c.ToFloat64(rr) / normB2)
	}
	return res
}

func toFloat64s(c posit.Config, x []posit.Bits) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = c.ToFloat64(x[i])
	}
	return out
}
