package matgen_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"positlab/internal/matgen"
)

// suiteFingerprints are SHA-256 digests of every Table I replica as
// Generate builds it: the CSR arrays of A (RowPtr, Col and the bits of
// Val) followed by the bits of b = A·x̂. Every experiment reads these
// matrices, so a change that moves one bit of one replica moves
// results/*.csv; only a change meant to move the suite may edit them.
var suiteFingerprints = map[string]string{
	"plat362":  "00f048d97b6d8cb7f7f80064c5b02b4105fdb8c6002eacec652a480a29e9d282",
	"mhd416b":  "ce0da22ca97d169489722b01d3f52a16ce23e31e4d7836e7145c9d5627f02a02",
	"662_bus":  "86d6bf971cd5368260c8d96b05115293734764a10059d1425764d90159a07e86",
	"lund_b":   "2fb6a4d83d18b3bd9d5eeeaf15e41932b6923de978f94089df717d81c1ac6d3e",
	"bcsstk02": "df13c081fd69ac54fbcb39b62746cf8f51f31f4f40b7886551681ea81b8ea3c9",
	"685_bus":  "a749b27f858cc0ba056f1a532f483546d3513a84f80cda4fb3bb52930e50d11f",
	"1138_bus": "3b1f10283aaa90fed5a1dd6f3d2b5edb637f7d005628a90d229369c6cee2027c",
	"494_bus":  "70c1337b381b700f722d1472140833c2a2c9799fc5844ee871e94b7118aafa33",
	"nos5":     "45ec3c869e36e9b2a02398e0d7a4242144c395819daccc96ca0f666d5ca274a2",
	"bcsstk22": "d7ada23fdc2b8042ab331b6c50eefdc5286157cb9405dee116a4343f6dab3a94",
	"nos6":     "78fbfd2850fe685161b71ff5be89fac850e4660d04c7a2ddcfe1cca39e4872d8",
	"bcsstk09": "46e2273507296d60a765e6d5d54f701a6c9e5c12aacc79ec10db380502279baf",
	"lund_a":   "89592cca1237fa286b44e5ba2e8e494beac13de30960029b467dfa83ea0b2445",
	"nos1":     "84a09b1041500c80e9b8b00772e364c65bcd3727d6be4597614681237e1f6d18",
	"bcsstk01": "c6acee26baf75f57c8dea6952595c19fa02e2c3e35467e387c18302007b153c4",
	"bcsstk06": "9930014be8829650fda67ee2fabc9ce949acfa1b8612906387758b9b2b696534",
	"msc00726": "38a2acdb682969102f52fef24af4e5c7ebc69e5d48acd1b1289d19849ac706f4",
	"bcsstk08": "348c5c372564590a6c671c603b514a5b3cb7f9c33ddc8787cd74e734158ff265",
	"nos2":     "1e5d3b7bd06d7966c9dadb99e0aa26f911814e5d59072b313bca040304761c31",
}

// fingerprint hashes a generated replica's A and b, each value as
// eight little-endian bytes.
func fingerprint(m *matgen.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, p := range m.A.RowPtr {
		word(uint64(p))
	}
	for _, c := range m.A.Col {
		word(uint64(c))
	}
	for _, v := range m.A.Val {
		word(math.Float64bits(v))
	}
	for _, v := range m.B {
		word(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSuiteFingerprint pins all 19 replicas bit for bit. Under the race
// detector only the targets with N <= 250 run: generation is
// single-goroutine arithmetic, which the detector has nothing to check.
func TestSuiteFingerprint(t *testing.T) {
	for _, tgt := range matgen.TableI {
		t.Run(tgt.Name, func(t *testing.T) {
			if raceEnabled && tgt.N > 250 {
				t.Skipf("N = %d; the race pass checks N <= 250 only", tgt.N)
			}
			t.Parallel()
			got := fingerprint(matgen.Generate(tgt))
			if want := suiteFingerprints[tgt.Name]; got != want {
				t.Errorf("%s: fingerprint %s, want %s\n\t%q: %q,", tgt.Name, got, want, tgt.Name, got)
			}
		})
	}
}
