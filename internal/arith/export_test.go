package arith

import "positlab/internal/posit"

// Test hooks into the table registry. They exist so the differential
// and registry tests can exercise unexported machinery (build
// counting, registry-bypassing builds) without widening the public
// API.

// TableBuildCount reports the number of from-scratch table builds this
// process has performed.
func TableBuildCount() uint64 { return tableBuilds.Load() }

// PositTableSpec exposes the registry key of a posit config.
func PositTableSpec(c posit.Config) string { return positSpec(c) }

// ForgetTablesForTest deletes spec's registry entry, so the next first
// use of a new format value of spec builds its tables again. A test
// that counts builds calls it first, so it passes under -count=N too.
func ForgetTablesForTest(spec string) {
	tableReg.Lock()
	delete(tableReg.m, spec)
	tableReg.Unlock()
}

// BuildTablesForTest runs a from-scratch build of the tables behind a
// table-backed fast format, bypassing the registry (the table-build
// benchmarks time it).
func BuildTablesForTest(f Format) *Tables { return f.(*tableFormat).lt.build() }

// CutsForTest exposes the rounding-boundary table: cut[p] is the
// magnitude where patterns p-1 and p meet.
func CutsForTest(t *Tables) []uint64 { return t.cut }

// SearchForTest exposes the binade-bounded boundary search: the largest
// p with cut[p] <= a, for magnitude bits a.
func SearchForTest(t *Tables, a uint64) uint32 { return t.search(a) }
