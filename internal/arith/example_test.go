package arith_test

import (
	"fmt"

	"positlab/internal/arith"
)

func ExampleByName() {
	f, _ := arith.ByName("posit(32,2)")
	x := f.Div(f.One(), f.FromFloat64(3))
	fmt.Printf("%s %.12g\n", f.Name(), f.ToFloat64(x))
	// Output: Posit(32,2) 0.333333333954
}

func ExampleFormat() {
	// The same expression under three formats: posit(16,2) carries one
	// extra bit near 1.0 compared with Float16.
	for _, name := range []string{"float16", "posit16es2", "float64"} {
		f := arith.MustByName(name)
		third := f.Div(f.One(), f.FromFloat64(3))
		fmt.Printf("%s %v\n", f.Name(), f.ToFloat64(third))
	}
	// Output:
	// Float16 0.333251953125
	// Posit(16,2) 0.3333740234375
	// Float64 0.3333333333333333
}

func ExampleFromFloat64Clamped() {
	// The Table II loading rule: out-of-range entries clamp to the
	// largest finite value instead of overflowing.
	v := arith.FromFloat64Clamped(arith.Float16, 1e9)
	fmt.Println(arith.Float16.ToFloat64(v))
	// Output: 65504
}

func ExampleObserve() {
	var counts arith.AtomicOpCounts
	f := arith.Observe(arith.Posit16e2, &counts)
	s := f.Zero()
	for i := 1; i <= 4; i++ {
		s = f.Add(s, f.FromFloat64(float64(i)))
	}
	c := counts.Snapshot()
	fmt.Println(f.ToFloat64(s), c.Add, c.Conv)
	// Output: 10 4 4
}
