package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans are recorded
// by the benchmark around its own calls into the program (or copied
// from reports the program returns, such as runner job reports and
// job records), kept in memory, and written out when the run ends.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Ref is the request or job ID the span belongs to, if any.
	Ref   string    `json:"ref,omitempty"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

func (s Span) dur() time.Duration { return s.End.Sub(s.Start) }

// Tracer collects spans. A nil *Tracer records nothing, which is how
// the untraced runs that produce the end-to-end metrics switch it off.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

// Begin opens a span under parent and returns its ID (0 when off).
func (t *Tracer) Begin(parent int, layer, name, ref string) int {
	if t == nil {
		return 0
	}
	return t.Add(parent, layer, name, ref, time.Now(), time.Time{})
}

// Finish closes the span opened by Begin.
func (t *Tracer) Finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records a span whose bounds are already known.
func (t *Tracer) Add(parent int, layer, name, ref string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Layer: layer, Name: name, Ref: ref, Start: start, End: end})
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.MarshalIndent(t.Spans(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns each layer's self time: for every span, its
// duration minus the part of its interval that its children cover,
// summed per layer.
func selfTimes(spans []Span) map[string]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, children []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// busyShare is Σ job wall / (workers × wall): the share of the worker
// pool's capacity that the jobs kept busy.
func busyShare(jobs []Span, workers int, wall time.Duration) float64 {
	if workers <= 0 || wall <= 0 {
		return 0
	}
	var busy time.Duration
	for _, j := range jobs {
		busy += j.dur()
	}
	return float64(busy) / (float64(workers) * float64(wall))
}
