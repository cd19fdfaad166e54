package solvers

// Test hooks for the external test package, which can import matgen
// (matgen imports solvers, so an in-package test cannot).

// FactorErrorF64 exposes factorErrorF64, the row-ordered float64
// factorization error.
var FactorErrorF64 = factorErrorF64

// ScaledDense exposes scaledDense, the mixed-precision IR's scaled
// dense matrix.
var ScaledDense = scaledDense
