package arith

import (
	"sync"
	"sync/atomic"
)

// Process-wide engine registry.
//
// Building a format's engine costs up to milliseconds (a table engine
// decodes all 2^16 patterns and 2^15 boundaries through the exact
// pipeline; every engine fills a 64 KB inline table, probing the
// binades without fraction bits through its own rounding), so engines
// are built lazily, once per process, the first time any caller — a
// solver kernel, positd's /v1/convert, the experiment runner —
// operates in the format. A per-spec sync.Once gives singleflight semantics: concurrent
// first users of the same config block on one build instead of racing
// duplicates, and two format values of one spec (arith.Posit32e2 and
// arith.MustByName("posit32es2")) share it.

type engineEntry struct {
	once sync.Once
	eng  engine
}

var engineReg = struct {
	sync.Mutex
	m map[string]*engineEntry
}{m: map[string]*engineEntry{}}

// engineBuilds counts from-scratch builds, for the concurrency tests.
var engineBuilds atomic.Uint64

// engineFor returns the process-wide engine of spec, building it on
// first use.
func engineFor(spec string, build func() engine) engine {
	engineReg.Lock()
	e := engineReg.m[spec]
	if e == nil {
		e = &engineEntry{}
		engineReg.m[spec] = e
	}
	engineReg.Unlock()
	e.once.Do(func() {
		engineBuilds.Add(1)
		e.eng = build()
	})
	return e.eng
}
