package arith

import (
	"fmt"
	"sync"
	"sync/atomic"

	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

// Process-wide inline-table registry.
//
// A fast format's inline table takes 64 KB, and building it probes the
// binades without fraction bits through the format's reference
// pipeline, so tables are built lazily, once per process, the first
// time any caller — a solver kernel, positd's /v1/convert, the
// experiment runner — operates in the format. A per-spec sync.Once
// gives singleflight semantics: concurrent first users of the same
// config block on one build instead of racing duplicates, and two
// format values of one spec (arith.Posit32e2 and
// arith.MustByName("posit32es2")) share it.

type tableEntry struct {
	once sync.Once
	t    *inlineTable
}

var tableReg = struct {
	sync.Mutex
	m map[string]*tableEntry
}{m: map[string]*tableEntry{}}

// tableBuilds counts from-scratch builds, for the concurrency tests.
var tableBuilds atomic.Uint64

// tableFor returns the process-wide inline table of spec, building it
// on first use.
func tableFor(spec string, build func() *inlineTable) *inlineTable {
	tableReg.Lock()
	e := tableReg.m[spec]
	if e == nil {
		e = &tableEntry{}
		tableReg.m[spec] = e
	}
	tableReg.Unlock()
	e.once.Do(func() {
		tableBuilds.Add(1)
		e.t = build()
	})
	return e.t
}

// positSpec and miniSpec are the registry identities of a format
// configuration. They name the rounding semantics completely.
func positSpec(c posit.Config) string { return fmt.Sprintf("posit%de%d", c.N(), c.ES()) }

func miniSpec(f minifloat.Format) string {
	return fmt.Sprintf("mini_e%dm%d", f.ExpBits(), f.FracBits())
}
