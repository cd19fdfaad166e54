package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// okSpec returns a spec whose Run records its ID into order (under mu)
// and returns a body derived from the ID.
func okSpec(id string, deps []string, mu *sync.Mutex, order *[]string) Spec {
	return Spec{
		ID:    id,
		Title: "test " + id,
		Deps:  deps,
		Run: func(ctx context.Context, env *Env) (*Result, error) {
			mu.Lock()
			*order = append(*order, id)
			mu.Unlock()
			return &Result{Body: "body-" + id}, nil
		},
	}
}

func indexOf(s []string, v string) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

func TestRegistryRejectsBadSpecs(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Spec{ID: "", Run: func(context.Context, *Env) (*Result, error) { return nil, nil }}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := r.Register(Spec{ID: "x"}); err == nil {
		t.Fatal("nil Run accepted")
	}
	if err := r.Register(Spec{ID: "x", Run: func(context.Context, *Env) (*Result, error) { return &Result{}, nil }}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Spec{ID: "x", Run: func(context.Context, *Env) (*Result, error) { return &Result{}, nil }}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if got := r.IDs(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("IDs = %v", got)
	}
}

func TestSchedulerRespectsDeps(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	var order []string
	// Diamond: d depends on b and c, which both depend on a; e is
	// independent.
	r.Register(okSpec("a", nil, &mu, &order))
	r.Register(okSpec("b", []string{"a"}, &mu, &order))
	r.Register(okSpec("c", []string{"a"}, &mu, &order))
	r.Register(okSpec("d", []string{"b", "c"}, &mu, &order))
	r.Register(okSpec("e", nil, &mu, &order))

	results, rep, err := r.Run(context.Background(), []string{"d", "e"}, Config{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// d and its transitive deps ran; e too.
	if len(order) != 5 {
		t.Fatalf("ran %v, want 5 jobs", order)
	}
	for _, pair := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		if indexOf(order, pair[0]) > indexOf(order, pair[1]) {
			t.Errorf("%s ran after %s: %v", pair[0], pair[1], order)
		}
	}
	if results["d"] == nil || results["d"].Body != "body-d" {
		t.Fatalf("missing result for d: %+v", results["d"])
	}
	if ok, cached, failed := rep.Counts(); ok != 5 || cached != 0 || failed != 0 {
		t.Fatalf("counts = %d/%d/%d", ok, cached, failed)
	}
}

func TestSchedulerRunsIndependentJobsConcurrently(t *testing.T) {
	r := NewRegistry()
	const n = 4
	gate := make(chan struct{})
	var arrived sync.WaitGroup
	arrived.Add(n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("j%d", i)
		r.Register(Spec{ID: id, Run: func(ctx context.Context, env *Env) (*Result, error) {
			arrived.Done()
			// Block until every job is in flight at once; a serial
			// scheduler would deadlock here (caught by the timeout).
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &Result{Body: id}, nil
		}})
	}
	go func() {
		arrived.Wait()
		close(gate)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, _, err := r.Run(ctx, r.IDs(), Config{Jobs: n})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results", len(results))
	}
}

func TestSchedulerFailureCascadesToDependentsOnly(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	var order []string
	r.Register(Spec{ID: "bad", Run: func(ctx context.Context, env *Env) (*Result, error) {
		return nil, errors.New("boom")
	}})
	r.Register(okSpec("child", []string{"bad"}, &mu, &order))
	r.Register(okSpec("grandchild", []string{"child"}, &mu, &order))
	r.Register(okSpec("bystander", nil, &mu, &order))

	results, rep, err := r.Run(context.Background(), []string{"grandchild", "bystander"}, Config{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != "bystander" {
		t.Fatalf("ran %v, want only bystander", order)
	}
	if results["bystander"] == nil {
		t.Fatal("bystander result missing")
	}
	byID := map[string]JobReport{}
	for _, j := range rep.Jobs {
		byID[j.ID] = j
	}
	if !strings.Contains(byID["bad"].Err, "boom") {
		t.Errorf("bad.Err = %q", byID["bad"].Err)
	}
	for _, id := range []string{"child", "grandchild"} {
		if !strings.Contains(byID[id].Err, "skipped: dependency") {
			t.Errorf("%s.Err = %q, want skip marker", id, byID[id].Err)
		}
	}
}

func TestSchedulerPanicBecomesJobError(t *testing.T) {
	r := NewRegistry()
	r.Register(Spec{ID: "panics", Run: func(ctx context.Context, env *Env) (*Result, error) {
		panic("unknown matrix")
	}})
	var mu sync.Mutex
	var order []string
	r.Register(okSpec("fine", nil, &mu, &order))
	results, rep, err := r.Run(context.Background(), []string{"panics", "fine"}, Config{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results["fine"] == nil {
		t.Fatal("healthy job lost to sibling panic")
	}
	var got string
	for _, j := range rep.Jobs {
		if j.ID == "panics" {
			got = j.Err
		}
	}
	if !strings.Contains(got, "panic: unknown matrix") {
		t.Fatalf("panic err = %q", got)
	}
}

func TestSchedulerCancellationStopsInFlightAndPendingJobs(t *testing.T) {
	r := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	r.Register(Spec{ID: "inflight", Run: func(ctx context.Context, env *Env) (*Result, error) {
		close(started)
		<-ctx.Done() // an in-flight job observing cancellation
		return nil, ctx.Err()
	}})
	r.Register(Spec{ID: "after", Deps: []string{"inflight"}, Run: func(ctx context.Context, env *Env) (*Result, error) {
		return &Result{Body: "should never run"}, nil
	}})
	go func() {
		<-started
		cancel()
	}()
	results, rep, err := r.Run(ctx, []string{"after"}, Config{Jobs: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != 0 {
		t.Fatalf("results = %v, want none", results)
	}
	if ok, _, failed := rep.Counts(); ok != 0 || failed != 2 {
		t.Fatalf("counts ok=%d failed=%d, want 0/2", ok, failed)
	}
}

func TestSchedulerTimeout(t *testing.T) {
	r := NewRegistry()
	r.Register(Spec{ID: "slow", Run: func(ctx context.Context, env *Env) (*Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			return &Result{Body: "too late"}, nil
		}
	}})
	_, _, err := r.Run(context.Background(), []string{"slow"}, Config{Jobs: 1, Timeout: 20 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestSchedulerErrorsOnUnknownIDAndCycle(t *testing.T) {
	r := NewRegistry()
	r.Register(Spec{ID: "a", Deps: []string{"b"}, Run: func(context.Context, *Env) (*Result, error) { return &Result{}, nil }})
	if _, _, err := r.Run(context.Background(), []string{"nope"}, Config{}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown id err = %v", err)
	}
	if _, _, err := r.Run(context.Background(), []string{"a"}, Config{}); err == nil || !strings.Contains(err.Error(), `unknown experiment "b"`) {
		t.Fatalf("unknown dep err = %v", err)
	}
	r2 := NewRegistry()
	r2.Register(Spec{ID: "x", Deps: []string{"y"}, Run: func(context.Context, *Env) (*Result, error) { return &Result{}, nil }})
	r2.Register(Spec{ID: "y", Deps: []string{"x"}, Run: func(context.Context, *Env) (*Result, error) { return &Result{}, nil }})
	if _, _, err := r2.Run(context.Background(), []string{"x"}, Config{}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle err = %v", err)
	}
}

func TestCacheRoundTripAndMiss(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, err := c.Key("fig6", map[string]any{"matrices": []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(key, "fig6-") {
		t.Fatalf("key = %q, want id prefix", key)
	}
	if _, ok, err := c.Get(key); err != nil || ok {
		t.Fatalf("expected clean miss, got ok=%v err=%v", ok, err)
	}
	want := &Result{
		Body:      "hello",
		Artifacts: []Artifact{{Name: "fig6.csv", Kind: CSV, Content: "a,b\n"}},
		Metrics:   map[string]float64{"iters": 42},
	}
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if got.Body != want.Body || len(got.Artifacts) != 1 || got.Artifacts[0].Content != "a,b\n" || got.Metrics["iters"] != 42 {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	// Different options or ID must hash differently.
	k2, _ := c.Key("fig6", map[string]any{"matrices": []string{"a"}})
	k3, _ := c.Key("fig7", map[string]any{"matrices": []string{"a", "b"}})
	if k2 == key || k3 == key {
		t.Fatal("distinct inputs collided")
	}

	// A corrupted entry degrades to a miss, not an error.
	if err := os.WriteFile(c.path(key), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(key); err != nil || ok {
		t.Fatalf("corrupt entry: ok=%v err=%v, want miss", ok, err)
	}
}

// TestCacheGetRejectsForeignEntries plants entries that decode but do
// not belong where they lie: one copied to another key's path, and
// ones naming an artifact that is not a plain file name (experiments
// -csv/-svg join the name onto the output directory). Each must be a
// miss, like an undecodable entry.
func TestCacheGetRejectsForeignEntries(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keyA, _ := c.Key("fig6", map[string]any{"matrices": []string{"a"}})
	keyB, _ := c.Key("fig6", map[string]any{"matrices": []string{"b"}})
	if err := c.Put(keyA, &Result{Body: "body of A"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.path(keyA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(c.path(keyB)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(keyB), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, ok, err := c.Get(keyB); err != nil || ok {
		t.Errorf("entry of %s served for %s: ok=%v err=%v res=%+v", keyA, keyB, ok, err, res)
	}
	if _, ok, err := c.Get(keyA); err != nil || !ok {
		t.Fatalf("entry at its own key: ok=%v err=%v, want hit", ok, err)
	}

	for _, name := range []string{"", ".", "..", "../escape.csv", "sub/fig6.csv", "/out/fig6.csv", "fig6.csv/"} {
		res := &Result{Body: "b", Artifacts: []Artifact{
			{Name: "fig6.csv", Kind: CSV, Content: "a\n"},
			{Name: name, Kind: CSV, Content: "b\n"},
		}}
		if err := c.Put(keyA, res); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := c.Get(keyA); err != nil || ok {
			t.Errorf("artifact name %q: ok=%v err=%v, want miss", name, ok, err)
		}
	}
}

func TestSchedulerCacheHitSkipsWork(t *testing.T) {
	dir := t.TempDir()
	newReg := func(runs *int32, mu *sync.Mutex) *Registry {
		r := NewRegistry()
		r.Register(Spec{ID: "exp", Title: "cached experiment", Run: func(ctx context.Context, env *Env) (*Result, error) {
			mu.Lock()
			*runs++
			mu.Unlock()
			return &Result{
				Body:      "expensive-body",
				Artifacts: []Artifact{{Name: "exp.csv", Kind: CSV, Content: "r1\nr2\n"}},
			}, nil
		}})
		return r
	}
	var mu sync.Mutex
	var runs int32
	r := newReg(&runs, &mu)
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Jobs: 2, Cache: cache, Options: "opts-v1"}

	cold, rep1, err := r.Run(context.Background(), []string{"exp"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 || rep1.Jobs[0].Cached {
		t.Fatalf("cold run: runs=%d cached=%v", runs, rep1.Jobs[0].Cached)
	}

	// Fresh registry simulates a new process; the cache must satisfy
	// the job without invoking Run.
	r2 := newReg(&runs, &mu)
	warm, rep2, err := r2.Run(context.Background(), []string{"exp"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("warm run recomputed: runs=%d", runs)
	}
	if !rep2.Jobs[0].Cached {
		t.Fatal("warm run not marked cached")
	}
	if warm["exp"].Body != cold["exp"].Body || warm["exp"].Artifacts[0].Content != cold["exp"].Artifacts[0].Content {
		t.Fatal("cached result differs from cold result")
	}

	// Changing the option value must miss.
	cfg.Options = "opts-v2"
	if _, _, err := newReg(&runs, &mu).Run(context.Background(), []string{"exp"}, cfg); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("changed options should recompute, runs=%d", runs)
	}
}

func TestProgressRendersEvents(t *testing.T) {
	var sb strings.Builder
	p := Progress(&sb, 3)
	p(Event{Kind: JobStart, ID: "fig6", Title: "CG"})
	p(Event{Kind: JobDone, ID: "fig6", Elapsed: 1500 * time.Millisecond})
	p(Event{Kind: JobCached, ID: "fig7"})
	p(Event{Kind: JobFailed, ID: "fig8", Err: "boom"})
	out := sb.String()
	for _, want := range []string{"start  fig6", "done   fig6", "(1.5s)", "cached fig7", "FAILED fig8", "[ 3/3]"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}

func TestRunReportJSONAndSummary(t *testing.T) {
	rep := &RunReport{
		Schema:      RunsSchema,
		Workers:     4,
		TotalWallMS: 1234,
		Jobs: []JobReport{
			{ID: "a", WallMS: 10},
			{ID: "b", Cached: true},
			{ID: "c", Err: "boom"},
		},
	}
	if ok, cached, failed := rep.Counts(); ok != 1 || cached != 1 || failed != 1 {
		t.Fatalf("counts = %d/%d/%d", ok, cached, failed)
	}
	s := rep.Summary()
	if !strings.Contains(s, "3 jobs: 1 computed, 1 cached, 1 failed") {
		t.Fatalf("summary = %q", s)
	}
	path := filepath.Join(t.TempDir(), "runs.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), RunsSchema) {
		t.Fatal("runs.json missing schema marker")
	}
}
