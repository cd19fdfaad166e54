package arith

import "positlab/internal/posit"

// Test hooks into the inline-table registry. They exist so the
// differential and registry tests can exercise unexported machinery
// (build counting, registry-bypassing builds) without widening the
// public API.

// TableBuildCount reports the number of from-scratch inline-table
// builds this process has performed.
func TableBuildCount() uint64 { return tableBuilds.Load() }

// PositTableSpec exposes the registry key of a posit config.
func PositTableSpec(c posit.Config) string { return positSpec(c) }

// ForgetTablesForTest deletes spec's registry entry, so the next first
// use of a new format value of spec builds its table again. A test
// that counts builds calls it first, so it passes under -count=N too.
func ForgetTablesForTest(spec string) {
	tableReg.Lock()
	delete(tableReg.m, spec)
	tableReg.Unlock()
}

// HeldTableForTest returns the inline table that the fast format f
// holds, or nil before f's first operation.
func HeldTableForTest(f Format) *Tables { return f.(*fastFormat).inline.Load() }

// BuildTablesForTest runs a from-scratch build of the inline table of
// a fast format, bypassing the registry (the table-build benchmarks
// time it).
func BuildTablesForTest(f Format) *Tables { return f.(*fastFormat).build() }

// InlineRoundForTest runs the fast format f's inline rounding step on
// the float64 bits b: the rounded bits, and whether the step rounded b
// rather than leaving it to the off path.
func InlineRoundForTest(f Format, b uint64) (uint64, bool) {
	r, _, ok := f.(*fastFormat).table().round(b)
	return r, ok
}
