package service

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"positlab/internal/arith"
	"positlab/internal/jobs"
	"positlab/internal/shadow"
)

// latWindow is the per-route latency reservoir size: quantiles are
// computed over the most recent latWindow observations.
const latWindow = 512

// Metrics aggregates serving-side observability: an in-flight gauge,
// per-route request counts, status tallies and latency quantiles over
// a sliding window, plus the shared operation counters Ops, which
// observe the format of every /v1/solve request and /v1/jobs solve
// and the conversions of /v1/convert. /v1/diagnose runs are not
// counted there: their reports carry their own op totals, and Shadow
// gathers them. Snapshot renders it all; the server additionally
// publishes the snapshot through expvar.
type Metrics struct {
	// Ops counts the format operations of the requests above
	// (atomic; written from handler goroutines directly).
	Ops *arith.AtomicOpCounts
	// Shadow aggregates the per-op error gauges of completed
	// /v1/diagnose runs (atomic, like Ops).
	Shadow *shadow.Gauges

	mu       sync.Mutex
	start    time.Time
	inFlight int
	routes   map[string]*routeStats
}

// routeStats is one route's mutable aggregate, guarded by Metrics.mu.
type routeStats struct {
	count    uint64
	statuses map[string]uint64
	lat      [latWindow]float64
	latN     int
}

// NewMetrics returns an empty metrics aggregate.
func NewMetrics() *Metrics {
	return &Metrics{
		Ops:    &arith.AtomicOpCounts{},
		Shadow: &shadow.Gauges{},
		start:  time.Now(),
		routes: map[string]*routeStats{},
	}
}

// Enter increments the in-flight gauge.
func (m *Metrics) Enter() {
	m.mu.Lock()
	m.inFlight++
	m.mu.Unlock()
}

// Leave decrements the in-flight gauge.
func (m *Metrics) Leave() {
	m.mu.Lock()
	m.inFlight--
	m.mu.Unlock()
}

// Observe records one finished request against its route pattern.
func (m *Metrics) Observe(route string, status int, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.routes[route]
	if !ok {
		rs = &routeStats{statuses: map[string]uint64{}}
		m.routes[route] = rs
	}
	rs.count++
	rs.statuses[strconv.Itoa(status)]++
	rs.lat[rs.latN%latWindow] = ms
	rs.latN++
}

// RouteSnapshot is one route's rendered aggregate.
type RouteSnapshot struct {
	Count    uint64            `json:"count"`
	Statuses map[string]uint64 `json:"statuses"`
	P50MS    jsonFloat         `json:"p50_ms"`
	P99MS    jsonFloat         `json:"p99_ms"`
}

// MetricsSnapshot is the /debug/metrics response body.
type MetricsSnapshot struct {
	UptimeSec float64                  `json:"uptime_sec"`
	InFlight  int                      `json:"in_flight"`
	Routes    map[string]RouteSnapshot `json:"routes"`
	Cache     CacheSnapshot            `json:"cache"`
	Ops       arith.OpCounts           `json:"ops"`
	OpsTotal  uint64                   `json:"ops_total"`
	// Shadow is the /v1/diagnose error-gauge section: runs completed,
	// operations shadowed/measured, and the worst relative error seen.
	Shadow shadow.GaugesSnapshot `json:"shadow"`
	// Jobs is the async job subsystem section (queue depths, lifecycle
	// counters, wait/run latency quantiles, journal/replay health);
	// attached by the server, absent from bare Metrics snapshots.
	Jobs *jobs.MetricsSnapshot `json:"jobs,omitempty"`
}

// CacheSnapshot is the cache section of the metrics snapshot.
type CacheSnapshot struct {
	CacheStats
	HitRatio float64 `json:"hit_ratio"`
}

// Snapshot renders the aggregate. cache may be nil (no cache section
// counters beyond zeros).
func (m *Metrics) Snapshot(cache *Cache) MetricsSnapshot {
	snap := MetricsSnapshot{
		Routes: map[string]RouteSnapshot{},
	}
	if cache != nil {
		st := cache.Stats()
		snap.Cache = CacheSnapshot{CacheStats: st, HitRatio: st.HitRatio()}
	}
	snap.Ops = m.Ops.Snapshot()
	snap.OpsTotal = snap.Ops.Total()
	snap.Shadow = m.Shadow.Snapshot()

	m.mu.Lock()
	defer m.mu.Unlock()
	snap.UptimeSec = time.Since(m.start).Seconds()
	snap.InFlight = m.inFlight
	// Iterate routes in sorted key order: quantile computation is a
	// call, and map iteration order is randomized.
	keys := make([]string, 0, len(m.routes))
	for k := range m.routes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rs := m.routes[k]
		p50, p99 := rs.quantiles()
		statuses := make(map[string]uint64, len(rs.statuses))
		for code, n := range rs.statuses {
			statuses[code] = n
		}
		snap.Routes[k] = RouteSnapshot{
			Count:    rs.count,
			Statuses: statuses,
			P50MS:    jsonFloat(p50),
			P99MS:    jsonFloat(p99),
		}
	}
	return snap
}

// quantiles computes p50/p99 over the retained window (NaN before any
// observation — rendered null).
func (rs *routeStats) quantiles() (p50, p99 float64) {
	n := rs.latN
	if n > latWindow {
		n = latWindow
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	s := make([]float64, n)
	copy(s, rs.lat[:n])
	sort.Float64s(s)
	idx := func(q float64) float64 {
		i := int(q * float64(n-1))
		return s[i]
	}
	return idx(0.50), idx(0.99)
}
