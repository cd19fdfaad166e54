package runner

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"positlab/internal/arith"
)

// Config tunes one Registry.Run invocation.
type Config struct {
	// Jobs is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	Jobs int
	// Timeout bounds the whole run; 0 means no limit.
	Timeout time.Duration
	// Cache, when non-nil, is consulted before each job and updated
	// after each successful one.
	Cache *Cache
	// Options is passed to every job via Env.Options.
	Options any
	// KeyData is the value hashed (together with each experiment ID)
	// into cache keys. Nil means use Options. Drivers should pass a
	// canonicalized options value here so that equivalent option
	// spellings share cache entries.
	KeyData any
	// Instrument allocates a per-job arith.AtomicOpCounts and exposes
	// it via Env.Ops, so job reports carry operation counts.
	Instrument bool
	// Events, when non-nil, receives progress events. It is called
	// from worker goroutines; the callback must be safe for
	// concurrent use (Progress from this package is).
	Events func(Event)
}

// jobDone carries one finished job from a worker to the coordinator.
type jobDone struct {
	id     string
	result *Result
	report JobReport
}

// Run executes the requested experiment IDs plus their transitive
// dependencies. Independent jobs run concurrently on a worker pool;
// dependents start only after their deps succeed. A failing job fails
// its dependents but does not stop unrelated jobs. The results map
// holds an entry per successful job; per-job errors are surfaced in
// the report, and the returned error covers run-level problems only
// (unknown IDs, dependency cycles, context cancellation).
func (r *Registry) Run(ctx context.Context, ids []string, cfg Config) (map[string]*Result, *RunReport, error) {
	specs, err := r.resolve(ids)
	if err != nil {
		return nil, nil, err
	}
	order, err := topoSort(specs)
	if err != nil {
		return nil, nil, err
	}
	workers := cfg.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(order) {
		workers = len(order)
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}

	rep := &RunReport{Schema: RunsSchema, Workers: workers, Started: time.Now()}
	emit := func(e Event) {
		if cfg.Events != nil {
			cfg.Events(e)
		}
	}

	results := map[string]*Result{}
	reports := map[string]*JobReport{}

	// Dependency bookkeeping, owned by the coordinator loop below.
	indeg := map[string]int{}
	dependents := map[string][]string{}
	for _, s := range specs {
		for _, d := range s.Deps {
			if _, in := specs[d]; !in {
				continue
			}
			indeg[s.ID]++
			dependents[d] = append(dependents[d], s.ID)
		}
	}

	readyCh := make(chan Spec, len(order))
	doneCh := make(chan jobDone)
	for i := 0; i < workers; i++ {
		go func() {
			for s := range readyCh {
				doneCh <- runJob(ctx, s, cfg, emit)
			}
		}()
	}

	// Seed initially-ready jobs in topological order.
	for _, id := range order {
		if indeg[id] == 0 {
			readyCh <- specs[id]
		}
	}

	finalized := 0
	var finalize func(d jobDone)
	finalize = func(d jobDone) {
		finalized++
		reports[d.id] = &d.report
		if d.report.Err == "" {
			results[d.id] = d.result
		}
		for _, dep := range dependents[d.id] {
			indeg[dep]--
			if indeg[dep] > 0 {
				continue
			}
			if d.report.Err != "" {
				// Cascade: fail the dependent without running it.
				skip := jobDone{id: dep, report: JobReport{
					ID: dep, Title: specs[dep].Title,
					Err: fmt.Sprintf("skipped: dependency %s failed: %s", d.id, d.report.Err),
				}}
				emit(Event{Kind: JobFailed, ID: dep, Title: specs[dep].Title, Err: skip.report.Err})
				finalize(skip)
				continue
			}
			readyCh <- specs[dep]
		}
	}
	for finalized < len(order) {
		finalize(<-doneCh)
	}
	close(readyCh)

	rep.Finished = time.Now()
	rep.TotalWallMS = float64(rep.Finished.Sub(rep.Started)) / float64(time.Millisecond)
	for _, id := range order {
		if jr := reports[id]; jr != nil {
			rep.Jobs = append(rep.Jobs, *jr)
		}
	}
	if err := ctx.Err(); err != nil {
		return results, rep, err
	}
	return results, rep, nil
}

// runJob executes one spec: cache lookup, run with panic recovery,
// cache store, events, and report assembly.
func runJob(ctx context.Context, s Spec, cfg Config, emit func(Event)) (d jobDone) {
	jr := JobReport{ID: s.ID, Title: s.Title, Start: time.Now()}
	defer func() {
		jr.End = time.Now()
		jr.WallMS = float64(jr.End.Sub(jr.Start)) / float64(time.Millisecond)
		d = jobDone{id: s.ID, result: d.result, report: jr}
		kind, elapsed := JobDone, jr.End.Sub(jr.Start)
		switch {
		case jr.Err != "":
			kind = JobFailed
		case jr.Cached:
			kind = JobCached
		}
		emit(Event{Kind: kind, ID: s.ID, Title: s.Title, Elapsed: elapsed, Err: jr.Err})
	}()

	if err := ctx.Err(); err != nil {
		jr.Err = "canceled: " + err.Error()
		return
	}
	emit(Event{Kind: JobStart, ID: s.ID, Title: s.Title})

	keyData := cfg.KeyData
	if keyData == nil {
		keyData = cfg.Options
	}
	var key string
	if cfg.Cache != nil {
		k, err := cfg.Cache.Key(s.ID, keyData)
		if err != nil {
			jr.Err = "cache key: " + err.Error()
			return
		}
		key = k
		if res, ok, err := cfg.Cache.Get(key); err != nil {
			jr.Err = "cache read: " + err.Error()
			return
		} else if ok {
			jr.Cached = true
			jr.Metrics = res.Metrics
			d.result = res
			return
		}
	}

	env := &Env{Options: cfg.Options}
	if cfg.Instrument {
		env.Ops = &arith.AtomicOpCounts{}
	}

	res, err := safeRun(ctx, s, env)
	if err != nil {
		jr.Err = err.Error()
		return
	}
	if env.Ops != nil {
		ops := env.Ops.Snapshot()
		jr.Ops = &ops
	}
	jr.Metrics = res.Metrics
	if cfg.Cache != nil {
		if err := cfg.Cache.Put(key, res); err != nil {
			jr.Err = "cache write: " + err.Error()
			return
		}
	}
	d.result = res
	return
}

// safeRun invokes the spec, converting a panic (e.g. an unknown
// matrix name deep in suite generation) into a job error so one bad
// job cannot take down the whole run.
func safeRun(ctx context.Context, s Spec, env *Env) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	res, err = s.Run(ctx, env)
	if err == nil && res == nil {
		err = fmt.Errorf("spec %s returned neither result nor error", s.ID)
	}
	return
}

// resolve maps the requested IDs plus their transitive deps to specs.
func (r *Registry) resolve(ids []string) (map[string]Spec, error) {
	specs := map[string]Spec{}
	var add func(id, via string) error
	add = func(id, via string) error {
		if _, seen := specs[id]; seen {
			return nil
		}
		s, ok := r.Lookup(id)
		if !ok {
			if via != "" {
				return fmt.Errorf("runner: unknown experiment %q (dependency of %s)", id, via)
			}
			return fmt.Errorf("runner: unknown experiment %q", id)
		}
		specs[id] = s
		for _, d := range s.Deps {
			if err := add(d, id); err != nil {
				return err
			}
		}
		return nil
	}
	for _, id := range ids {
		if err := add(id, ""); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// topoSort orders the selected specs so every dep precedes its
// dependents, breaking ties by ID for determinism, and reports cycles.
func topoSort(specs map[string]Spec) ([]string, error) {
	indeg := map[string]int{}
	dependents := map[string][]string{}
	var ids []string
	for id := range specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, d := range specs[id].Deps {
			if _, in := specs[d]; in {
				indeg[id]++
				dependents[d] = append(dependents[d], id)
			}
		}
	}
	var ready, order []string
	for _, id := range ids {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		var unlocked []string
		for _, dep := range dependents[id] {
			indeg[dep]--
			if indeg[dep] == 0 {
				unlocked = append(unlocked, dep)
			}
		}
		sort.Strings(unlocked)
		ready = append(ready, unlocked...)
	}
	if len(order) != len(ids) {
		var stuck []string
		for _, id := range ids {
			if indeg[id] > 0 {
				stuck = append(stuck, id)
			}
		}
		return nil, fmt.Errorf("runner: dependency cycle among %v", stuck)
	}
	return order, nil
}
