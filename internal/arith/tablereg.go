package arith

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"positlab/internal/faultfs"
)

// Process-wide table registry.
//
// Building a format's tables costs tens of milliseconds (the exact
// pipeline runs over all 2^16 patterns, twice for the unary tables),
// so tables are built lazily, once per process, the first time any
// caller — a solver kernel, positd's /v1/convert, the experiment
// runner — touches the format's fast path. A per-spec sync.Once gives
// singleflight semantics: concurrent first users of the same config
// block on one build instead of racing duplicates (the fact-cache
// idiom from internal/lint).
//
// Optionally the built tables persist in a content-addressed on-disk
// cache (SetTableCacheDir or POSITLAB_TABLE_CACHE): entries are keyed
// by schema version + format spec, carry a SHA-256 trailer, and are
// written atomically (temp + fsync + rename), so a corrupt or stale
// entry is silently rebuilt, never trusted.

// tableSchema versions the on-disk encoding; bumping it changes every
// cache key, so old entries are ignored rather than misread. (A var,
// not a const, so the invalidation test can simulate a bump.)
var tableSchema = "positlab-tables/v1"

const tableMagic = "PLTAB1\n"

type tableEntry struct {
	once sync.Once
	tab  *Tables
}

var tableReg = struct {
	sync.Mutex
	m   map[string]*tableEntry
	dir string
	fs  faultfs.FS
}{m: map[string]*tableEntry{}, fs: faultfs.OS}

// tableBuilds counts from-scratch builds (registry misses that the
// disk cache did not serve), for the concurrency tests and the bench
// report.
var tableBuilds atomic.Uint64

// tableCacheWriteErrs counts failed best-effort cache persists. The
// in-memory tables stay authoritative, but a sick disk should be
// visible, not silent.
var tableCacheWriteErrs atomic.Uint64

// TableCacheWriteErrors reports how many table-cache persists failed
// since process start.
func TableCacheWriteErrors() uint64 { return tableCacheWriteErrs.Load() }

// SetTableCacheFS routes the on-disk table cache through fsys (nil
// restores the real filesystem). It exists for the chaos suite and for
// positd's -fault-plan flag; production code never calls it.
func SetTableCacheFS(fsys faultfs.FS) {
	tableReg.Lock()
	tableReg.fs = faultfs.OrOS(fsys)
	tableReg.Unlock()
}

func tableFS() faultfs.FS {
	tableReg.Lock()
	defer tableReg.Unlock()
	return tableReg.fs
}

func init() {
	if dir := os.Getenv("POSITLAB_TABLE_CACHE"); dir != "" {
		// Best-effort: an unusable cache dir must not break startup —
		// the fallback is building tables in memory, so just warn.
		if err := SetTableCacheDir(dir); err != nil {
			fmt.Fprintf(os.Stderr, "arith: POSITLAB_TABLE_CACHE unusable, building tables in memory: %v\n", err)
		}
	}
}

// SetTableCacheDir enables (non-empty) or disables (empty) the on-disk
// table cache. Call it before first use of the fast formats; tables
// already resident are not re-persisted.
//
// The directory is created and probed for writability up front. On
// failure the disk cache is disabled — tables build in memory exactly
// as with no cache configured — and the error is returned so the
// caller can warn; it never needs to be fatal.
func SetTableCacheDir(dir string) error {
	var err error
	if dir != "" {
		if err = probeCacheDir(dir); err != nil {
			err = fmt.Errorf("arith: table cache: %w", err)
			dir = ""
		}
	}
	tableReg.Lock()
	tableReg.dir = dir
	tableReg.Unlock()
	return err
}

// probeCacheDir creates dir and verifies a file can actually be
// written there (MkdirAll succeeding says nothing about a read-only
// mount or a path component that is a file).
func probeCacheDir(dir string) error {
	fsys := tableFS()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	probe, err := fsys.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	name := probe.Name()
	cerr := probe.Close()
	if rerr := fsys.Remove(name); cerr == nil {
		cerr = rerr
	}
	return cerr
}

func tableEntryFor(spec string) (*tableEntry, string) {
	tableReg.Lock()
	e := tableReg.m[spec]
	if e == nil {
		e = &tableEntry{}
		tableReg.m[spec] = e
	}
	dir := tableReg.dir
	tableReg.Unlock()
	return e, dir
}

// tablesFor returns the process-wide tables of spec, loading or
// building them on first use.
func tablesFor(spec string, build func() *Tables) *Tables {
	e, dir := tableEntryFor(spec)
	e.once.Do(func() { e.tab = loadOrBuildTables(dir, spec, build) })
	return e.tab
}

func loadOrBuildTables(dir, spec string, build func() *Tables) *Tables {
	if dir != "" {
		if body, err := readTableCache(dir, spec); err == nil {
			if t, err := unmarshalTables(spec, body); err == nil {
				return t
			}
		}
	}
	tableBuilds.Add(1)
	t := build()
	if dir != "" {
		writeTableCache(dir, spec, t.marshalBinary())
	}
	return t
}

// --- on-disk cache ---

func tableCachePath(dir, spec string) string {
	h := sha256.Sum256([]byte(tableSchema + "\x00" + spec))
	return filepath.Join(dir, hex.EncodeToString(h[:])[:24]+".tab")
}

func readTableCache(dir, spec string) ([]byte, error) {
	data, err := tableFS().ReadFile(tableCachePath(dir, spec))
	if err != nil {
		return nil, err
	}
	min := len(tableMagic) + 2 + sha256.Size
	if len(data) < min {
		return nil, errors.New("arith: table cache entry truncated")
	}
	payload, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	want := sha256.Sum256(payload)
	if !bytes.Equal(sum, want[:]) {
		return nil, errors.New("arith: table cache entry corrupt")
	}
	if string(payload[:len(tableMagic)]) != tableMagic {
		return nil, errors.New("arith: table cache entry has wrong magic")
	}
	rest := payload[len(tableMagic):]
	slen := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) < slen || string(rest[:slen]) != spec {
		return nil, errors.New("arith: table cache entry is for a different spec")
	}
	return rest[slen:], nil
}

// writeTableCache persists a built table best-effort: a failed write
// leaves the in-memory tables authoritative and the next process
// rebuilds — but the failure is counted, not silent. Within that, the
// write itself is atomic and durable (temp file, fsync before rename
// via faultfs.WriteFileAtomic) so readers never observe a torn entry.
func writeTableCache(dir, spec string, body []byte) {
	payload := make([]byte, 0, len(tableMagic)+2+len(spec)+len(body)+sha256.Size)
	payload = append(payload, tableMagic...)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(spec)))
	payload = append(payload, spec...)
	payload = append(payload, body...)
	sum := sha256.Sum256(payload)
	payload = append(payload, sum[:]...)

	if err := faultfs.WriteFileAtomic(tableFS(), tableCachePath(dir, spec), payload); err != nil {
		tableCacheWriteErrs.Add(1)
	}
}

// --- Tables (de)serialization ---

func appendU64s(buf []byte, v []uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, x)
	}
	return buf
}

func appendU16s(buf []byte, v []uint16) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint16(buf, x)
	}
	return buf
}

func (t *Tables) marshalBinary() []byte {
	buf := make([]byte, 0, t.MemBytes()+64)
	buf = append(buf, byte(t.width))
	if t.ieee {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, t.maxPat)
	buf = binary.LittleEndian.AppendUint16(buf, t.patMask)
	buf = binary.LittleEndian.AppendUint16(buf, t.signPat)
	buf = binary.LittleEndian.AppendUint16(buf, t.nanPat)
	buf = binary.LittleEndian.AppendUint16(buf, t.infPat)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(t.minScale)))
	buf = binary.LittleEndian.AppendUint64(buf, t.maxFinBits)
	dec := make([]uint64, len(t.decode))
	for i, v := range t.decode {
		dec[i] = math.Float64bits(v)
	}
	buf = appendU64s(buf, dec)
	buf = appendU64s(buf, t.cut)
	buf = appendU16s(buf, t.sqrt)
	buf = appendU16s(buf, t.recip)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.fb)))
	for _, b := range t.fb {
		buf = append(buf, byte(b))
	}
	buf = appendU16s(buf, t.patBase)
	return buf
}

type tableReader struct {
	data []byte
	err  error
}

func (r *tableReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data) < n {
		r.err = errors.New("arith: table cache body truncated")
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

// The fixed-width readers tolerate a failed take (nil slice): the
// error is already latched in r.err, and the decoder must keep
// returning zeros instead of panicking on torn input — the corpus
// test feeds it raw truncations directly.
func (r *tableReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *tableReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *tableReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// maxTableLen bounds every decoded slice length: the widest format is
// 16 bits, so no table exceeds 2^16+2 entries.
const maxTableLen = 1<<16 + 2

func (r *tableReader) length() int {
	n := int(r.u32())
	if n > maxTableLen {
		r.err = errors.New("arith: table cache length out of range")
		return 0
	}
	return n
}

func (r *tableReader) u64s() []uint64 {
	n := r.length()
	v := make([]uint64, n)
	for i := range v {
		v[i] = r.u64()
	}
	return v
}

func (r *tableReader) u16s() []uint16 {
	n := r.length()
	v := make([]uint16, n)
	for i := range v {
		v[i] = r.u16()
	}
	return v
}

func unmarshalTables(spec string, body []byte) (*Tables, error) {
	r := &tableReader{data: body}
	t := &Tables{spec: spec}
	hdr := r.take(2)
	if r.err != nil {
		return nil, r.err
	}
	t.width = int(hdr[0])
	t.ieee = hdr[1] == 1
	t.maxPat = r.u32()
	t.patMask = r.u16()
	t.signPat = r.u16()
	t.nanPat = r.u16()
	t.infPat = r.u16()
	t.minScale = int(int64(r.u64()))
	t.maxFinBits = r.u64()
	dec := r.u64s()
	t.cut = r.u64s()
	t.sqrt = r.u16s()
	t.recip = r.u16s()
	nfb := r.length()
	fbRaw := r.take(nfb)
	t.patBase = r.u16s()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != 0 {
		return nil, errors.New("arith: table cache body has trailing bytes")
	}
	if t.width < 2 || t.width > 16 || len(dec) != 1<<uint(t.width) ||
		len(t.cut) != int(t.maxPat)+2 || len(t.sqrt) != len(dec) ||
		len(t.recip) != len(dec) || len(t.patBase) != nfb {
		return nil, errors.New("arith: table cache body inconsistent")
	}
	t.decode = make([]float64, len(dec))
	for i, b := range dec {
		t.decode[i] = math.Float64frombits(b)
	}
	t.fb = make([]int8, nfb)
	for i, b := range fbRaw {
		t.fb[i] = int8(b)
	}
	if t.minScale+1023 < 0 || t.minScale+nfb+1023 > 2048 {
		return nil, errors.New("arith: table cache scale range out of bounds")
	}
	if err := t.checkValues(); err != nil {
		return nil, err
	}
	t.finalize()
	return t, nil
}

// checkValues rejects a decoded body whose lengths agree but whose
// values do not: every pattern it stores must lie within the width
// (the unary tables and the specials index decode directly), the cuts
// must ascend from zero for the boundary search, every fraction width
// must leave a nonzero discard in dropByE, and the overflow bound must
// be maxpos's own value.
func (t *Tables) checkValues() error {
	bad := func(what string) error {
		return fmt.Errorf("arith: table cache body has an inconsistent %s", what)
	}
	if t.patMask != uint16(1<<uint(t.width)-1) || t.maxPat >= 1<<uint(t.width-1) {
		return bad("pattern range")
	}
	for _, p := range [...]uint16{t.signPat, t.nanPat, t.infPat} {
		if p > t.patMask {
			return bad("special pattern")
		}
	}
	for _, tab := range [...][]uint16{t.sqrt, t.recip} {
		for _, p := range tab {
			if p > t.patMask {
				return bad("unary table")
			}
		}
	}
	for _, p := range t.patBase {
		if uint32(p) > t.maxPat {
			return bad("binade base pattern")
		}
	}
	if t.cut[0] != 0 {
		return bad("boundary table")
	}
	for i := 1; i < len(t.cut); i++ {
		if t.cut[i] <= t.cut[i-1] {
			return bad("boundary table")
		}
	}
	for _, b := range t.fb {
		if int(b) >= t.width {
			return bad("fraction width")
		}
	}
	if t.maxFinBits != math.Float64bits(t.decode[t.maxPat]) {
		return bad("overflow bound")
	}
	return nil
}
