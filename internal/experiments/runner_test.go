package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"positlab/internal/runner"
)

// smallOpt scopes runner integration tests to the two smallest Table I
// replicas so solver work stays fast.
func smallOpt() Options {
	return Options{Matrices: []string{"bcsstk01", "bcsstk02"}}
}

func TestRegisteredSpecsCoverCLI(t *testing.T) {
	want := []string{
		"table1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
		"table2", "table3", "fig10",
		"ext-fft", "ext-shock", "ext-bicg", "ext-gmres",
	}
	for _, id := range want {
		if _, ok := runner.Default.Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	for id, dep := range map[string]string{"fig10": "table3", "ext-gmres": "table2"} {
		if s, _ := runner.Default.Lookup(id); !reflect.DeepEqual(s.Deps, []string{dep}) {
			t.Errorf("%s.Deps = %v, want [%s]", id, s.Deps, dep)
		}
	}
}

// TestRunnerCacheGolden is the satellite acceptance check: a warm
// cache re-run must return rows (bodies and CSV artifacts) identical
// to the cold run, without invoking any experiment code.
func TestRunnerCacheGolden(t *testing.T) {
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := smallOpt()
	ids := []string{"table1", "fig6"}
	cfg := runner.Config{Jobs: 2, Cache: cache, Options: opt, KeyData: opt.Canonical()}

	cold, coldRep, err := runner.Default.Run(context.Background(), ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmRep, err := runner.Default.Run(context.Background(), ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range coldRep.Jobs {
		if jr.Cached {
			t.Errorf("cold run reported %s as cached", jr.ID)
		}
	}
	for _, jr := range warmRep.Jobs {
		if !jr.Cached {
			t.Errorf("warm run recomputed %s", jr.ID)
		}
	}
	for _, id := range ids {
		if cold[id] == nil || warm[id] == nil {
			t.Fatalf("missing result for %s", id)
		}
		if cold[id].Body != warm[id].Body {
			t.Errorf("%s: warm body differs from cold", id)
		}
		if !reflect.DeepEqual(cold[id].Artifacts, warm[id].Artifacts) {
			t.Errorf("%s: warm artifacts differ from cold", id)
		}
	}
}

// TestRunnerParallelMatchesSerial checks the headline acceptance
// property: fanning jobs out over workers changes nothing about the
// rendered rows.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	ids := []string{"table1", "fig6", "table2"}
	run := func(jobs int) map[string]*runner.Result {
		res, _, err := runner.Default.Run(context.Background(), ids,
			runner.Config{Jobs: jobs, Options: smallOpt()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(4)
	for _, id := range ids {
		if serial[id].Body != parallel[id].Body {
			t.Errorf("%s: parallel body differs from serial", id)
		}
		if !reflect.DeepEqual(serial[id].Artifacts, parallel[id].Artifacts) {
			t.Errorf("%s: parallel artifacts differ from serial", id)
		}
	}
}

// TestRunnerBadMatrixSurfacesAsJobError exercises the panic-recovery
// path end to end: suite() panics on an unknown matrix deep inside a
// job, and the scheduler must convert that into a per-job error.
func TestRunnerBadMatrixSurfacesAsJobError(t *testing.T) {
	_, rep, err := runner.Default.Run(context.Background(), []string{"table1"},
		runner.Config{Jobs: 1, Options: Options{Matrices: []string{"bcsstk01"}}})
	if err != nil || rep.Jobs[0].Err != "" {
		t.Fatalf("healthy run failed: %v %q", err, rep.Jobs[0].Err)
	}
	_, rep, err = runner.Default.Run(context.Background(), []string{"table1"},
		runner.Config{Jobs: 1, Options: Options{Matrices: []string{"no-such-matrix"}}})
	if err != nil {
		t.Fatalf("run-level error, want per-job error: %v", err)
	}
	if got := rep.Jobs[0].Err; !strings.Contains(got, "no-such-matrix") {
		t.Fatalf("job error = %q, want matrix name", got)
	}
}

// TestSuiteSingleflightParallel hammers suite() from concurrent
// goroutines (as parallel jobs do) and checks every caller sees the
// same generated matrices. Run with -race this also proves the
// per-name singleflight is sound.
func TestSuiteSingleflightParallel(t *testing.T) {
	names := []string{"bcsstk01", "bcsstk02"}
	ref := suite(names)
	done := make(chan []int, 8)
	for i := 0; i < 8; i++ {
		go func() {
			ms := suite(names)
			ptrs := make([]int, len(ms))
			for j, m := range ms {
				if m != ref[j] {
					ptrs[j] = 1
				}
			}
			done <- ptrs
		}()
	}
	for i := 0; i < 8; i++ {
		for j, bad := range <-done {
			if bad != 0 {
				t.Errorf("caller %d got a different instance of %s", i, names[j])
			}
		}
	}
}

// TestRunnerTimeoutCancelsSolverLoops exercises the -timeout path: an
// already-expired context must stop experiment jobs at the solver
// cancellation checkpoints, surface a per-job cancellation error, and
// never cache partial rows.
func TestRunnerTimeoutCancelsSolverLoops(t *testing.T) {
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := smallOpt()
	cfg := runner.Config{Jobs: 1, Cache: cache, Options: opt, KeyData: opt.Canonical()}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, rep, err := runner.Default.Run(ctx, []string{"table2"}, cfg)
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if len(results) != 0 {
		t.Fatalf("canceled run produced results: %v", results)
	}
	for _, jr := range rep.Jobs {
		if jr.Err == "" || !strings.Contains(jr.Err, "canceled") {
			t.Errorf("job %s: err = %q, want a cancellation error", jr.ID, jr.Err)
		}
		if jr.Cached {
			t.Errorf("job %s cached a canceled run", jr.ID)
		}
	}

	// The cache must stay empty: a fresh run with the same key must
	// recompute (and now succeed).
	results, rep, err = runner.Default.Run(context.Background(), []string{"table2"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range rep.Jobs {
		if jr.Cached {
			t.Errorf("job %s hit cache populated by a canceled run", jr.ID)
		}
	}
	if results["table2"] == nil || results["table2"].Body == "" {
		t.Fatal("post-cancellation run returned no table2 body")
	}
}
