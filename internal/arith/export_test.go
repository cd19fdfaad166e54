package arith

import "positlab/internal/posit"

// Test hooks into the engine registry. They exist so the differential
// and registry tests can exercise unexported machinery (build
// counting, registry-bypassing builds) without widening the public
// API.

// TableBuildCount reports the number of from-scratch engine builds
// this process has performed, table engines and wide posits alike.
func TableBuildCount() uint64 { return engineBuilds.Load() }

// PositTableSpec exposes the registry key of a posit config.
func PositTableSpec(c posit.Config) string { return positSpec(c) }

// ForgetTablesForTest deletes spec's registry entry, so the next first
// use of a new format value of spec builds its engine again. A test
// that counts builds calls it first, so it passes under -count=N too.
func ForgetTablesForTest(spec string) {
	engineReg.Lock()
	delete(engineReg.m, spec)
	engineReg.Unlock()
}

// EngineForTest returns the engine that the fast format f holds, or
// nil before f's first operation.
func EngineForTest(f Format) any {
	k := f.(*fastFormat)
	if k.inline.Load() == nil {
		return nil
	}
	return k.eng
}

// BuildTablesForTest runs a from-scratch build of the tables behind a
// table-backed fast format, bypassing the registry (the table-build
// benchmarks time it).
func BuildTablesForTest(f Format) *Tables { return f.(*fastFormat).build().(*Tables) }

// CutsForTest exposes the rounding-boundary table: cut[p] is the
// magnitude where patterns p-1 and p meet.
func CutsForTest(t *Tables) []uint64 { return t.cut }

// SearchForTest exposes the binade-bounded boundary search: the largest
// p with cut[p] <= a, for magnitude bits a.
func SearchForTest(t *Tables, a uint64) uint32 { return t.search(a) }

// InlineRoundForTest runs the fast format f's inline rounding step on
// the float64 bits b: the rounded bits, and whether the step rounded b
// rather than leaving it to the engine.
func InlineRoundForTest(f Format, b uint64) (uint64, bool) {
	r, _, ok := f.(*fastFormat).table().round(b)
	return r, ok
}
