package matgen_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"positlab/internal/matgen"
)

// expSweepHash is the SHA-256 of matgen's exp over expArgs, each result
// as eight little-endian bytes.
const expSweepHash = "6c6584793065bc25bbc016e1f5d57ef02632d9d9847ccdfdf465779f06673458"

// expArgs returns the special values and edges of exp (signed zeros,
// infinities, NaN, the overflow threshold, the subnormal and underflow
// thresholds, arguments past the int32 range of k) followed by 1<<20
// seeded arguments uniform in [-750, 710].
func expArgs() []float64 {
	args := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1, -1, 0.5, math.Ln2, -math.Ln2, 1e-300, -1e-300, 5e-324,
		-1e10, -math.MaxFloat64, math.MaxFloat64}
	for _, edge := range []float64{
		7.09782712893384e+02, // overflow threshold of the assembly
		1023 * math.Ln2,      // largest scale 2ᵏ
		-1022 * math.Ln2,     // smallest normal result
		-1074 * math.Ln2,     // smallest subnormal result
		-1075 * math.Ln2,     // results round to 0 below
		-1075.5 * math.Ln2,   // k < -1075: the scale underflows
	} {
		args = append(args, edge, math.Nextafter(edge, math.Inf(1)), math.Nextafter(edge, math.Inf(-1)))
	}
	state := uint64(20201)
	for i := 0; i < 1<<20; i++ {
		// splitmix64, written out so the sweep never depends on a
		// library generator.
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		args = append(args, -750+1460*(float64(z>>11)/(1<<53)))
	}
	return args
}

// TestExpFMAPath pins matgen's exp, the one exponential the suite's
// generator calls: its results over a sweep must hash to the recorded
// value on every host, and equal math.Exp bit for bit wherever
// math.Exp runs the amd64 assembly's FMA branch.
func TestExpFMAPath(t *testing.T) {
	args := expArgs()
	h := sha256.New()
	var buf [8]byte
	for _, x := range args {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(matgen.Exp(x)))
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != expSweepHash {
		t.Fatalf("exp sweep hash %s, want %s", got, expSweepHash)
	}

	// The two branches of the amd64 assembly differ at this argument.
	const probe = -5.769309383630534
	if got := math.Exp(probe); runtime.GOARCH != "amd64" || got != 0.0031219128139300246 {
		t.Skipf("math.Exp(%v) = %v on %s: not the amd64 FMA branch, so only the hash is checked", probe, got, runtime.GOARCH)
	}
	for _, x := range args {
		got, want := matgen.Exp(x), math.Exp(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("exp(%v) = %v (%#x), math.Exp = %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
