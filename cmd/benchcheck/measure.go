package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"positlab/internal/arith"
	"positlab/internal/jobs"
	"positlab/internal/linalg"
	"positlab/internal/lint"
	"positlab/internal/shadow"
	"positlab/internal/solvers"
)

// measurers are the live-measurement hooks; tests substitute stubs so
// the eval/table/exit-code logic is checked without running solvers.
type measurers struct {
	// shadow returns per-run wall times of the named shadow workload
	// (see shadowMatrix) unwrapped, default-sampled, and fully measured.
	shadow func(workload string) (off, sampled, full float64, err error)
	// jobs returns ephemeral submit-to-complete throughput in jobs/s.
	jobs func(n int) (float64, error)
	// lint returns cold and warm RunRepo wall times in seconds.
	lint func(root string) (coldS, warmS float64, err error)
}

func liveMeasurers() measurers {
	return measurers{shadow: measureShadow, jobs: measureJobsThroughput, lint: measureLint}
}

// timeWorkload reports the per-run wall time of fn, repeating until
// both a minimum run count and a minimum wall budget are met so one
// scheduler hiccup cannot decide the ratio.
func timeWorkload(minRuns int, fn func()) time.Duration {
	fn() // warm-up: lazy table builds, allocator steady state
	start := time.Now()
	runs := 0
	for runs < minRuns || time.Since(start) < 200*time.Millisecond {
		fn()
		runs++
	}
	return time.Since(start) / time.Duration(runs)
}

// laplacian1D is the SPD matrix of the shadow contract's workload:
// tridiagonal (2, -1), the 1-D Poisson operator.
func laplacian1D(n int) *linalg.Sparse {
	var entries []linalg.Entry
	for i := 0; i < n; i++ {
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 2})
		if i+1 < n {
			entries = append(entries, linalg.Entry{Row: i, Col: i + 1, Val: -1})
		}
	}
	s, err := linalg.NewSparseFromEntries(n, entries, true)
	if err != nil {
		panic(err) // static 200x200 operator; cannot fail
	}
	return s
}

// denseWorkload is the second workload the shadow overhead contract
// is checked on. The contract's own workload factors the 1-D
// Laplacian, whose trailing-update rows nearly all have a zero
// multiplier, so the solver skips them and tells the recorder of their
// operations in bulk; this one has no zero multiplier, so every row
// reaches the kernel and every sampled operation is measured op by op.
const denseWorkload = "cholesky dense n=200"

// shadowMatrix returns the matrix of a shadow workload: the diagonally
// dominant dense matrix (diagonal 256, off-diagonal 1/(1+(i+j) mod 7))
// for denseWorkload, and the 1-D Laplacian of the contract otherwise.
func shadowMatrix(workload string) *linalg.Dense {
	const n = 200
	if workload != denseWorkload {
		return laplacian1D(n).ToDense()
	}
	a := linalg.NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 256.0
			if i != j {
				v = 1 / float64(1+(i+j)%7)
			}
			a.Set(i, j, v)
		}
	}
	return a
}

// measureShadow times the Cholesky factorization of a shadow workload
// in Posit(16,2) unwrapped, with the default sampling stride, and with
// full measurement.
func measureShadow(workload string) (off, sampled, full float64, err error) {
	base := arith.Posit16e2
	a := shadowMatrix(workload)
	mk := func(g arith.Format) func() {
		ad := a.ToFormat(g, false)
		return func() {
			if _, cerr := solvers.Cholesky(ad); cerr != nil {
				err = fmt.Errorf("cholesky: %w", cerr)
			}
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	off = us(timeWorkload(10, mk(base)))
	sf, _ := shadow.Wrap(base, shadow.Config{SampleEvery: shadow.DefaultSampleEvery})
	sampled = us(timeWorkload(10, mk(sf)))
	ff, _ := shadow.Wrap(base, shadow.Config{SampleEvery: 1})
	full = us(timeWorkload(5, mk(ff)))
	return off, sampled, full, err
}

// noopRunner completes every job immediately: throughput over it
// measures the queue/settle machinery, not solver time — the same
// shape BENCH_jobs.json recorded.
type noopRunner struct{}

func (noopRunner) Run(ctx context.Context, job jobs.Job, sink jobs.Sink) ([]byte, error) {
	return []byte(`{"ok":true}`), nil
}

// measureJobsThroughput drives n submit-to-complete cycles through an
// ephemeral store (no journal) and reports jobs/s.
func measureJobsThroughput(n int) (float64, error) {
	s, err := jobs.Open("", jobs.Config{})
	if err != nil {
		return 0, err
	}
	p := jobs.NewPool(s, noopRunner{}, jobs.PoolConfig{Workers: 4})
	p.Start()
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < n; i++ {
		j, err := p.Submit("benchcheck", []byte(`{}`), jobs.SubmitOptions{})
		if err != nil {
			return 0, err
		}
		got, err := s.Wait(ctx, j.ID)
		if err != nil {
			return 0, err
		}
		if got.State != jobs.StateSucceeded {
			return 0, fmt.Errorf("job %s settled %s", j.ID, got.State)
		}
	}
	elapsed := time.Since(start)
	if !p.Drain(30 * time.Second) {
		return 0, errors.New("jobs pool did not drain")
	}
	if err := s.Close(); err != nil {
		return 0, err
	}
	return float64(n) / elapsed.Seconds(), nil
}

// measureLint runs lint.RunRepo against the module twice through one
// fresh fact cache: the first pass type-checks everything cold, the
// second must be served from the cache.
func measureLint(root string) (coldS, warmS float64, err error) {
	cacheDir, err := os.MkdirTemp("", "benchcheck-lint-")
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if rerr := os.RemoveAll(cacheDir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	rules := lint.AllRules()
	t0 := time.Now()
	if _, err := lint.RunRepo(root, cacheDir, rules); err != nil {
		return 0, 0, fmt.Errorf("lint cold: %w", err)
	}
	coldS = time.Since(t0).Seconds()
	t1 := time.Now()
	if _, err := lint.RunRepo(root, cacheDir, rules); err != nil {
		return 0, 0, fmt.Errorf("lint warm: %w", err)
	}
	warmS = time.Since(t1).Seconds()
	return coldS, warmS, nil
}
