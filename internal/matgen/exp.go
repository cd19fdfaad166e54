package matgen

import "math"

// exp returns eˣ bit for bit as Go's amd64 math.Exp computes it on a
// CPU with FMA (math/exp_amd64.s, the avxfma branch). math.Exp chooses
// between two instruction sequences at run time by the CPU's FMA
// support, and the two round differently, so calling it would make the
// suite depend on the host. The fused steps here are math.FMA calls,
// which round once on every platform, in hardware or in software, and
// every other product is converted explicitly so that no compiler
// fuses it.
//
// The method (Shibata, ISC'10) reduces x to r = x − k·ln2 with
// k = round(x·log₂e), evaluates eʳ − 1 by a degree-8 Taylor polynomial
// at r/16 and squares four times through (1+y)² − 1 = y·(y+2), and
// scales by 2ᵏ. ±Inf, NaN, overflow and subnormal results take the
// assembly's branches.
func exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2Hi    = 0.69314718055966295651160180568695068359375
		ln2Lo    = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsInf(x, -1):
		return 0
	case math.IsInf(x, 1) || math.IsNaN(x):
		return x
	case x > overflow:
		return math.Inf(1)
	}
	// CVTSD2SL rounds to nearest even. Every k below -1075 underflows
	// to 0, including the int32 overflow of the conversion.
	t := math.RoundToEven(float64(log2e * x))
	if t < -1075 {
		return 0
	}
	k := int(t)
	kf := float64(k)
	r := math.FMA(-kf, ln2Hi, x)
	r = math.FMA(-kf, ln2Lo, r)
	r = float64(r * 0.0625)
	p := 2.4801587301587301587e-5
	for _, c := range [...]float64{
		1.9841269841269841270e-4,
		1.3888888888888888889e-3,
		8.3333333333333333333e-3,
		4.1666666666666666667e-2,
		1.6666666666666666667e-1,
		0.5,
		1,
	} {
		p = math.FMA(p, r, c)
	}
	y := float64(r * p)
	for i := 0; i < 3; i++ {
		y = float64(y * (y + 2))
	}
	y = math.FMA(y+2, y, 1)

	// y·2ᵏ; a subnormal result scales in two steps, as the assembly
	// does, so it rounds once at the end.
	switch e := k + 1023; {
	case e >= 0x7ff:
		return math.Inf(1)
	case e > 0:
		return float64(y * math.Float64frombits(uint64(e)<<52))
	default:
		y = float64(y * math.Float64frombits(uint64(e+0x3fe)<<52))
		return float64(y * math.Float64frombits(1<<52))
	}
}
