package arith

import (
	"sync"
	"sync/atomic"
)

// Process-wide table registry.
//
// Building a format's tables costs milliseconds (the exact pipeline
// runs over all 2^16 patterns, twice for the unary tables), so tables
// are built lazily, once per process, the first time any caller — a
// solver kernel, positd's /v1/convert, the experiment runner — touches
// the format's fast path. A per-spec sync.Once gives singleflight
// semantics: concurrent first users of the same config block on one
// build instead of racing duplicates, and two format values of one
// spec (arith.Posit16e1 and arith.MustByName("posit16es1")) share it.

type tableEntry struct {
	once sync.Once
	tab  *Tables
}

var tableReg = struct {
	sync.Mutex
	m map[string]*tableEntry
}{m: map[string]*tableEntry{}}

// tableBuilds counts from-scratch builds, for the concurrency tests
// and the bench report.
var tableBuilds atomic.Uint64

// tablesFor returns the process-wide tables of spec, building them on
// first use.
func tablesFor(spec string, build func() *Tables) *Tables {
	tableReg.Lock()
	e := tableReg.m[spec]
	if e == nil {
		e = &tableEntry{}
		tableReg.m[spec] = e
	}
	tableReg.Unlock()
	e.once.Do(func() {
		tableBuilds.Add(1)
		e.tab = build()
	})
	return e.tab
}
