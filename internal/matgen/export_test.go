package matgen

// Exp exposes exp to the external tests.
var Exp = exp
