// Package shadow implements shadow-precision execution: it pairs any
// arith.Format with a high-precision reference engine and records
// per-operation rounding-error telemetry while the format computes
// exactly what it would have computed unobserved.
//
// The Recorder is a sampling arith.Observer (Wrap attaches one with
// arith.Observe). Every operation returns the underlying format's
// result bit-for-bit — observing never perturbs a solver trajectory —
// but a configurable fraction of operations is *measured*: the same
// operands are re-evaluated in the reference precision (float64 for
// formats of 16 bits or fewer, whose products and sums are exact in
// binary64; 256 bits above that, computed exactly in float64 for add,
// sub, mul and mul-add where a filter proves the result equal, and in
// big.Float otherwise) and the format result's
// relative error and ulp error are accumulated into log2-bucketed
// histograms keyed by operation kind and call-site label. A bounded
// top-K heap retains the worst individual operations with their
// operand values, so a diagnosis can point at the exact multiply or
// subtract where digits were lost.
//
// Memory is bounded by construction: histograms are fixed-size arrays,
// the per-label cell map is capped (overflow collapses into an "other"
// cell), and the worst-op list holds at most TopK entries. Overhead is
// bounded by sampling: slice kernels run through the format's
// BulkFormat fast path unconditionally, and only a sampled kernel call
// replays its defining scalar sequence for measurement.
package shadow

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"positlab/internal/arith"
)

// measuredOps is the number of operation kinds a Recorder measures:
// arith.OpAdd through arith.OpMulAdd (FromFloat64 is never sampled).
const measuredOps = int(arith.OpMulAdd) + 1

// Config tunes a Recorder. The zero value gets defaults from fill.
type Config struct {
	// SampleEvery measures every SampleEvery-th operation (1 = every
	// operation, the full-shadow mode). <= 0 means DefaultSampleEvery.
	SampleEvery int
	// TopK bounds the worst-operations list. <= 0 means 16.
	TopK int
	// MaxLabels bounds the number of distinct call-site labels with
	// their own histogram cells; later labels collapse into "other".
	// <= 0 means 64.
	MaxLabels int
}

// DefaultSampleEvery is the sampling stride used when Config leaves it
// unset: cheap enough for production solves (the replay cost amortizes
// to well under the kernel cost) while still seeing tens of thousands
// of operations in one factorization.
const DefaultSampleEvery = 64

func (c Config) fill() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	if c.TopK <= 0 {
		c.TopK = 16
	}
	if c.MaxLabels <= 0 {
		c.MaxLabels = 64
	}
	return c
}

// Histogram bucket layout: relative error is bucketed by
// floor(log2(rel)) clamped to [relMin, relMax]; ulp error likewise
// into [ulpMin, ulpMax]. Exactly-rounded-to-reference results (error
// zero) are tallied separately.
const (
	relMin, relMax = -72, 7
	ulpMin, ulpMax = -40, 23
	relBuckets     = relMax - relMin + 1
	ulpBuckets     = ulpMax - ulpMin + 1
)

// cellKey identifies one histogram cell: a caller-supplied phase
// label, the kernel site the operation ran in ("scalar" for direct
// Format calls), and the operation kind.
type cellKey struct {
	label string
	site  string
	op    arith.Op
}

// cell accumulates measurements for one (label, site, op) key.
type cell struct {
	count  uint64 // measured operations
	exact  uint64 // of which error-free vs the reference
	bad    uint64 // operations producing or consuming NaR/NaN/Inf
	maxRel float64
	maxUlp float64
	rel    [relBuckets]uint64
	ulp    [ulpBuckets]uint64
}

// OpSample is one measured operation, retained when it ranks among the
// worst by relative error. Operand and result values are exact float64
// images of the format values; Ref is the reference result rounded to
// float64 for display.
type OpSample struct {
	Label string  `json:"label"`
	Site  string  `json:"site"`
	Op    string  `json:"op"`
	A     Float   `json:"a"`
	B     Float   `json:"b"`
	C     Float   `json:"c,omitempty"`
	Got   Float   `json:"got"`
	Ref   Float   `json:"ref"`
	Rel   Float   `json:"rel"`
	Ulp   Float   `json:"ulp"`
	rel   float64 // ranking key (Rel, kept unboxed)
}

// Recorder accumulates shadow telemetry for one format: it is the
// sampling arith.Observer that shadow measurement attaches to a format
// (see Wrap). It is safe for concurrent use: the sampling decision is
// an atomic counter and measured samples are folded in under a mutex
// (sampled operations only, so contention scales with the sampling
// rate, not the op rate). Which operations it samples follows the
// order they reach it; every solver loop runs serially in its caller's
// goroutine, so for one solve that order is fixed.
type Recorder struct {
	cfg    Config
	f      arith.Format
	eng    refEngine
	ulp    func(v float64) float64
	stride uint64
	tick   atomic.Uint64 // operations seen: the next one's global index

	mu       sync.Mutex
	label    string
	cells    map[cellKey]*cell
	measured uint64
	worst    []OpSample // sorted descending by rel
	last     cellKey    // the key cellFor resolved last, and its cell
	lastCell *cell
	// The delivery Begin opened: its cell, site and kind (held under
	// mu until End).
	cur     *cell
	curSite string
	curOp   arith.Op
}

// NewRecorder returns a Recorder measuring operations of f against
// its reference engine. Attach it with arith.Observe, or use Wrap.
func NewRecorder(f arith.Format, cfg Config) *Recorder {
	cfg = cfg.fill()
	return &Recorder{
		cfg:    cfg,
		f:      f,
		eng:    engineFor(f),
		ulp:    ulpFnFor(f),
		stride: uint64(cfg.SampleEvery),
		label:  "run",
		cells:  map[cellKey]*cell{},
	}
}

// Wrap pairs f with a reference engine and returns f observed by a new
// Recorder, together with that Recorder. The wrapped format is
// bit-transparent: every operation returns exactly f's result.
func Wrap(f arith.Format, cfg Config) (arith.Format, *Recorder) {
	rec := NewRecorder(f, cfg)
	return arith.Observe(f, rec), rec
}

// SetLabel names the current execution phase; subsequent measurements
// are keyed under it. Call it at phase boundaries (e.g. "factor",
// "refine"), not per operation.
func (r *Recorder) SetLabel(label string) {
	r.mu.Lock()
	r.label = label
	r.mu.Unlock()
}

// Observe implements arith.Observer. It advances the global operation
// index by n and selects the indices idx in [start, start+n) that are
// sampling points ((idx+1) % stride == 0). FromFloat64 conversions are
// not operations here: they neither advance the index nor count.
func (r *Recorder) Observe(_ string, op arith.Op, n uint64) arith.Window {
	if op == arith.OpFromFloat64 {
		return arith.Window{}
	}
	start := r.tick.Add(n) - n
	// First sampling point at or after start is the next multiple of
	// stride minus 1 (0-based indices i with (i+1)%stride == 0).
	first := (start/r.stride+1)*r.stride - 1 - start
	if first >= n {
		return arith.Window{}
	}
	return arith.Window{First: first, Stride: r.stride}
}

// cellFor returns the histogram cell of (current label, site, op),
// respecting the label cap. A key keeps its cell once resolved, so the
// last resolution is cached: consecutive sampled calls at one site
// skip the map. Caller holds mu.
func (r *Recorder) cellFor(site string, op arith.Op) *cell {
	key := cellKey{label: r.label, site: site, op: op}
	if r.lastCell != nil && key == r.last {
		return r.lastCell
	}
	k := key
	c := r.cells[k]
	if c == nil && len(r.cells) >= r.cfg.MaxLabels*measuredOps {
		k.label = "other"
		c = r.cells[k]
	}
	if c == nil {
		c = &cell{}
		r.cells[k] = c
	}
	r.last, r.lastCell = key, c
	return c
}

// measureNums converts the operands and result to their exact float64
// images and measures the result against the reference engine. The
// values measured are exactly the values the format computed with; the
// error arithmetic itself lives in the float64-only engine helpers.
func (r *Recorder) measureNums(op arith.Op, a, b, c, got arith.Num) measurement {
	f := r.f
	av := f.ToFloat64(a)
	bv := f.ToFloat64(b)
	cv := f.ToFloat64(c)
	gv := f.ToFloat64(got)
	m := measurement{a: av, b: bv, c: cv, got: gv}
	if !finiteOps(op, av, bv, cv) || !finite(gv) {
		m.bad = true
		return m
	}
	ref, rel, ok := r.eng.measure(op, av, bv, cv, gv)
	if !ok {
		m.bad = true
		return m
	}
	m.ref, m.rel = ref, rel
	if rel > 0 {
		if u := r.ulp(math.Abs(ref)); u > 0 {
			m.ulp = math.Abs(gv-ref) / u
		}
	}
	return m
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// finiteOps checks the operands op actually reads.
func finiteOps(op arith.Op, a, b, c float64) bool {
	switch op {
	case arith.OpSqrt:
		return finite(a)
	case arith.OpMulAdd:
		return finite(a) && finite(b) && finite(c)
	default:
		return finite(a) && finite(b)
	}
}

// Begin implements arith.Sampler. It holds the lock until End, so the
// samples of one call fold under a single acquisition into one cell.
func (r *Recorder) Begin(site string, op arith.Op) {
	r.mu.Lock()
	r.cur, r.curSite, r.curOp = r.cellFor(site, op), site, op
}

// Sample implements arith.Sampler: it measures one sampled operation
// against the reference.
func (r *Recorder) Sample(a, b, c, got arith.Num) {
	r.foldLocked(r.cur, r.curSite, r.curOp, r.measureNums(r.curOp, a, b, c, got))
}

// End implements arith.Sampler.
func (r *Recorder) End() { r.mu.Unlock() }

// Exact implements arith.Sampler: it folds n sampled operations whose
// results are known without the reference — bad of them non-finite,
// the rest equal to their exact value. It records what measureNums
// would for each (a count, plus exact or bad), so the telemetry is
// identical to measuring them one by one.
func (r *Recorder) Exact(site string, op arith.Op, n, bad uint64) {
	r.mu.Lock()
	c := r.cellFor(site, op)
	r.measured += n
	c.count += n
	c.bad += bad
	c.exact += n - bad
	r.mu.Unlock()
}

// foldLocked folds one measurement into its cell, the histograms, and
// the worst list. Caller holds mu.
func (r *Recorder) foldLocked(c *cell, site string, op arith.Op, m measurement) {
	r.measured++
	c.count++
	if m.bad {
		c.bad++
		return
	}
	if m.rel == 0 {
		c.exact++
		return
	}
	c.rel[bucketIdx(m.rel, relMin, relMax)]++
	if m.ulp > 0 {
		c.ulp[bucketIdx(m.ulp, ulpMin, ulpMax)]++
	}
	if m.rel > c.maxRel {
		c.maxRel = m.rel
	}
	if m.ulp > c.maxUlp {
		c.maxUlp = m.ulp
	}
	r.noteWorst(site, op, m)
}

func (r *Recorder) noteWorst(site string, op arith.Op, m measurement) {
	k := r.cfg.TopK
	if len(r.worst) == k && r.worst[k-1].rel >= m.rel {
		return
	}
	s := OpSample{
		Label: r.label, Site: site, Op: op.String(),
		A: Float(m.a), B: Float(m.b), C: Float(m.c),
		Got: Float(m.got), Ref: Float(m.ref),
		Rel: Float(m.rel), Ulp: Float(m.ulp),
		rel: m.rel,
	}
	i := sort.Search(len(r.worst), func(i int) bool { return r.worst[i].rel < m.rel })
	if len(r.worst) < k {
		r.worst = append(r.worst, OpSample{})
	}
	copy(r.worst[i+1:], r.worst[i:])
	r.worst[i] = s
}

// bucketIdx maps a positive error magnitude to its clamped log2
// bucket's array index.
func bucketIdx(v float64, min, max int) int {
	e := math.Ilogb(v)
	if e < min {
		e = min
	} else if e > max {
		e = max
	}
	return e - min
}

// Bucket is one non-empty histogram bucket: Count errors with
// floor(log2(err)) == Log2 (clamped at the extremes).
type Bucket struct {
	Log2  int    `json:"log2"`
	Count uint64 `json:"count"`
}

// OpStats summarizes one (label, site, op) histogram cell.
type OpStats struct {
	Label string `json:"label"`
	Site  string `json:"site"`
	Op    string `json:"op"`
	// Count is the number of measured operations; Exact of those had
	// zero error vs the reference; Bad produced or consumed an
	// exceptional value (NaR/NaN/Inf) and carry no error measurement.
	Count uint64 `json:"count"`
	Exact uint64 `json:"exact"`
	Bad   uint64 `json:"bad,omitempty"`
	// MaxRel/MaxUlp are the largest observed relative and ulp errors.
	MaxRel Float `json:"max_rel"`
	MaxUlp Float `json:"max_ulp"`
	// RelHist/UlpHist are the non-empty log2 buckets, ascending.
	RelHist []Bucket `json:"rel_hist"`
	UlpHist []Bucket `json:"ulp_hist"`
}

// Snapshot is a point-in-time copy of a Recorder's telemetry.
type Snapshot struct {
	Format      string `json:"format"`
	Reference   string `json:"reference"`
	SampleEvery int    `json:"sample_every"`
	// TotalOps counts every format operation dispatched through the
	// wrapper; MeasuredOps is how many of them were measured against
	// the reference.
	TotalOps    uint64     `json:"total_ops"`
	MeasuredOps uint64     `json:"measured_ops"`
	Stats       []OpStats  `json:"stats"`
	Worst       []OpSample `json:"worst"`
}

// Snapshot returns the telemetry accumulated so far. Safe to call
// while the wrapped format is in use.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Format:      r.f.Name(),
		Reference:   r.eng.name(),
		SampleEvery: int(r.stride),
		TotalOps:    r.tick.Load(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.MeasuredOps = r.measured
	keys := make([]cellKey, 0, len(r.cells))
	for k := range r.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.label != b.label {
			return a.label < b.label
		}
		if a.site != b.site {
			return a.site < b.site
		}
		return a.op < b.op
	})
	for _, k := range keys {
		c := r.cells[k]
		st := OpStats{
			Label: k.label, Site: k.site, Op: k.op.String(),
			Count: c.count, Exact: c.exact, Bad: c.bad,
			MaxRel: Float(c.maxRel), MaxUlp: Float(c.maxUlp),
		}
		for i, n := range c.rel {
			if n > 0 {
				st.RelHist = append(st.RelHist, Bucket{Log2: i + relMin, Count: n})
			}
		}
		for i, n := range c.ulp {
			if n > 0 {
				st.UlpHist = append(st.UlpHist, Bucket{Log2: i + ulpMin, Count: n})
			}
		}
		s.Stats = append(s.Stats, st)
	}
	s.Worst = append([]OpSample(nil), r.worst...)
	return s
}

// Float is a float64 that marshals NaN and ±Inf as null (JSON has no
// representation for them); diagnosis reports are full of residuals
// and divergences that can legitimately be non-finite.
type Float float64

// MarshalJSON renders finite values as numbers and non-finite as null.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return fmt.Appendf(nil, "%g", v), nil
}
