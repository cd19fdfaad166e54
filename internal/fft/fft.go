// Package fft implements a format-generic radix-2 complex FFT, the
// first of the paper's proposed future-work applications (§VII): "We
// suspect that FFT may be a good application for Posit because its
// narrow working range makes it easy to squeeze into the Posit
// golden-zone." The transform rounds after every operation in the
// chosen format, like the paper's solver experiments.
package fft

import (
	"fmt"
	"math"

	"positlab/internal/arith"
)

// Complex is a complex value in a format.
type Complex struct {
	Re, Im arith.Num
}

// Plan holds the precomputed twiddle factors for size n in a format.
type Plan struct {
	F arith.Format
	N int
	// twiddles[k] = exp(-2πi k/N) for k < N/2, rounded into the format.
	twRe, twIm []arith.Num
}

// NewPlan builds a plan. n must be a power of two and at least 2.
func NewPlan(f arith.Format, n int) (*Plan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: size %d is not a power of two", n)
	}
	p := &Plan{F: f, N: n, twRe: make([]arith.Num, n/2), twIm: make([]arith.Num, n/2)}
	// Twiddle factors are constants of the transform, computed once at
	// plan time in float64 and correctly rounded into the format — the
	// standard practice the paper's FFT experiment assumes. Per-element
	// transform arithmetic below stays in the format.
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.twRe[k] = f.FromFloat64(math.Cos(ang)) //lint:allow precision twiddle constants rounded once at plan time
		p.twIm[k] = f.FromFloat64(math.Sin(ang)) //lint:allow precision twiddle constants rounded once at plan time
	}
	return p, nil
}

// Forward computes the in-place decimation-in-time FFT of x
// (len(x) == N).
func (p *Plan) Forward(x []Complex) {
	p.transform(x, false)
}

// Inverse computes the in-place inverse FFT, including the 1/N
// normalization.
func (p *Plan) Inverse(x []Complex) {
	p.transform(x, true)
	f := p.F
	invN := f.Div(f.One(), f.FromFloat64(float64(p.N)))
	for i := range x {
		x[i].Re = f.Mul(x[i].Re, invN)
		x[i].Im = f.Mul(x[i].Im, invN)
	}
}

func (p *Plan) transform(x []Complex, inverse bool) {
	if len(x) != p.N {
		// Length mismatch is caller programmer error (a plan is built
		// for one size), not a runtime condition to handle.
		panic(fmt.Sprintf("fft: input length %d != plan size %d", len(x), p.N)) //lint:allow panics dimension invariant, caller bug by contract
	}
	f := p.F
	n := p.N
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		step := n / length
		for start := 0; start < n; start += length {
			for k := 0; k < length/2; k++ {
				wRe := p.twRe[k*step]
				wIm := p.twIm[k*step]
				if inverse {
					wIm = f.Neg(wIm)
				}
				a := x[start+k]
				b := x[start+k+length/2]
				// t = w * b, rounded per operation.
				tRe := f.Sub(f.Mul(wRe, b.Re), f.Mul(wIm, b.Im))
				tIm := f.Add(f.Mul(wRe, b.Im), f.Mul(wIm, b.Re))
				x[start+k] = Complex{Re: f.Add(a.Re, tRe), Im: f.Add(a.Im, tIm)}
				x[start+k+length/2] = Complex{Re: f.Sub(a.Re, tRe), Im: f.Sub(a.Im, tIm)}
			}
		}
	}
}

// FromReal rounds a real signal into format complex values.
func FromReal(f arith.Format, signal []float64) []Complex {
	out := make([]Complex, len(signal))
	z := f.Zero()
	for i, v := range signal {
		out[i] = Complex{Re: f.FromFloat64(v), Im: z}
	}
	return out
}

// ToFloat64 converts format complex values to complex128.
func ToFloat64(f arith.Format, x []Complex) []complex128 {
	out := make([]complex128, len(x))
	for i, c := range x {
		out[i] = complex(f.ToFloat64(c.Re), f.ToFloat64(c.Im))
	}
	return out
}

// RelErrorL2 returns ‖got-want‖₂/‖want‖₂ over complex slices.
func RelErrorL2(got, want []complex128) float64 {
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += float64(real(d)*real(d)) + float64(imag(d)*imag(d))
		w := want[i]
		den += float64(real(w)*real(w)) + float64(imag(w)*imag(w))
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// ReferenceForward computes the exact-as-float64 FFT for comparison.
func ReferenceForward(signal []float64) []complex128 {
	n := len(signal)
	x := make([]complex128, n)
	for i, v := range signal {
		x[i] = complex(v, 0)
	}
	refTransform(x)
	return x
}

func refTransform(x []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		for start := 0; start < n; start += length {
			for k := 0; k < length/2; k++ {
				ang := -2 * math.Pi * float64(k) / float64(length)
				w := complex(math.Cos(ang), math.Sin(ang))
				a := x[start+k]
				// w·y with each product rounded, as amd64's complex
				// multiply rounds it: arm64 would fuse w*y.
				y := x[start+k+length/2]
				wr, wi, yr, yi := real(w), imag(w), real(y), imag(y)
				t := complex(float64(wr*yr)-float64(wi*yi), float64(wr*yi)+float64(wi*yr))
				x[start+k] = a + t
				x[start+k+length/2] = a - t
			}
		}
	}
}
