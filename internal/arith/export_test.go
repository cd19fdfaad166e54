package arith

import (
	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

// Test hooks into the table registry. They exist so the differential
// and cache tests can exercise unexported machinery (schema bumps,
// build counting, registry-bypassing loads) without widening the
// public API.

// TableBuildCount reports the number of from-scratch table builds this
// process has performed (disk-cache hits do not count).
func TableBuildCount() uint64 { return tableBuilds.Load() }

// SetTableSchemaForTest swaps the on-disk schema tag, simulating a
// format-evolution bump; the returned func restores the real one.
func SetTableSchemaForTest(s string) (restore func()) {
	old := tableSchema
	tableSchema = s
	return func() { tableSchema = old }
}

// TableCachePathForTest exposes the content-addressed cache location.
func TableCachePathForTest(dir, spec string) string { return tableCachePath(dir, spec) }

// PositTableSpec exposes the registry key of a posit config.
func PositTableSpec(c posit.Config) string { return positSpec(c) }

// LoadOrBuildPositTablesForTest bypasses the in-process registry so
// cache tests can repeat loads within one process.
func LoadOrBuildPositTablesForTest(dir string, c posit.Config) *Tables {
	return loadOrBuildTables(dir, positSpec(c), func() *Tables { return buildPositTables(c) })
}

// LoadOrBuildTablesForTest is LoadOrBuildPositTablesForTest for any
// table-backed fast format; an empty dir always builds from scratch.
func LoadOrBuildTablesForTest(dir string, f Format) *Tables {
	k := f.(*tableFormat)
	return loadOrBuildTables(dir, k.lt.spec, k.lt.build)
}

// BuildMiniTablesForTest runs a from-scratch minifloat table build
// (the table-build benchmark times it).
func BuildMiniTablesForTest(f minifloat.Format) *Tables { return buildMiniTables(f) }

// MarshalTablesForTest exposes the cache encoding of t.
func MarshalTablesForTest(t *Tables) []byte { return t.marshalBinary() }

// CutsForTest exposes the rounding-boundary table: cut[p] is the
// magnitude where patterns p-1 and p meet.
func CutsForTest(t *Tables) []uint64 { return t.cut }

// SearchForTest exposes the binade-bounded boundary search: the largest
// p with cut[p] <= a, for magnitude bits a.
func SearchForTest(t *Tables, a uint64) uint32 { return t.search(a) }
