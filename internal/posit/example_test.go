package posit_test

import (
	"fmt"

	"positlab/internal/posit"
)

func ExampleConfig_Add() {
	c := posit.Posit16e2
	a := c.FromFloat64(1.5)
	b := c.FromFloat64(2.25)
	fmt.Println(c.ToFloat64(c.Add(a, b)))
	// Output: 3.75
}

func ExampleConfig_Div_byZero() {
	c := posit.Posit32e2
	q := c.Div(c.One(), c.Zero())
	fmt.Println(c.IsNaR(q))
	// Output: true
}

func ExampleConfig_FromFloat64_clamping() {
	// Posits never overflow: values beyond maxpos clamp.
	c := posit.Posit16e2
	p := c.FromFloat64(1e300)
	fmt.Println(p == c.MaxPos(), c.ToFloat64(p))
	// Output: true 7.205759403792794e+16
}

func ExampleConfig_FracBits() {
	// Tapered precision: fraction bits shrink away from 1.0.
	c := posit.Posit32e2
	for _, v := range []float64{1, 1024, 1e9} {
		fmt.Println(c.FracBits(c.FromFloat64(v)))
	}
	// Output:
	// 27
	// 25
	// 20
}

func ExampleQuire() {
	// The quire defers rounding: a tiny addend survives cancellation
	// of two huge products.
	c := posit.Posit32e2
	q := c.NewQuire()
	big := c.FromFloat64(1e12)
	q.AddProduct(big, big)
	q.Add(c.FromFloat64(3))
	q.SubProduct(big, big)
	fmt.Println(c.ToFloat64(q.Round()))
	// Output: 3
}

func ExampleP32From() {
	sum := posit.P32From(1.5).Add(posit.P32From(2.25))
	fmt.Println(sum, sum.Sqrt().IsNaR(), sum.Neg())
	// Output: 3.75 false -3.75
}
