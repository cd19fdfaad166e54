// Package experiments regenerates every table and figure of the
// paper's evaluation section on the synthetic Table I replica suite:
//
//	Table I   — matrix inventory (Table1)
//	Fig. 3    — digits of accuracy vs magnitude per format (Fig3)
//	Fig. 5    — histogram of posit32 extra fraction bits (Fig5)
//	Fig. 6/7  — CG iteration counts, unscaled/rescaled (Fig6, Fig7)
//	Fig. 8/9  — Cholesky backward error, unscaled/rescaled (Fig8, Fig9)
//	Table II  — naive mixed-precision IR (Table2)
//	Table III — IR with Higham scaling (Table3)
//	Fig. 10   — refinement-step reduction and factorization-error
//	            digits (Fig10)
//
// Each experiment returns typed rows; Render* helpers print the same
// layout the paper reports. Absolute values will not match the paper
// (the matrices are synthetic replicas; see DESIGN.md) but the shape —
// who wins, by how much, where failures begin — is the reproduction
// target and is recorded against the paper in EXPERIMENTS.md.
package experiments

import (
	"context"
	"sync"

	"positlab/internal/arith"
	"positlab/internal/core"
	"positlab/internal/matgen"
)

// Options tunes experiment scope and caps.
type Options struct {
	// Matrices filters the suite by name; nil means all 19.
	Matrices []string `json:"matrices,omitempty"`
	// CGTol is the CG relative-residual convergence threshold
	// (paper: 1e-5).
	CGTol float64 `json:"cg_tol,omitempty"`
	// CGCapFactor caps CG at CGCapFactor*N iterations (default 10).
	CGCapFactor int `json:"cg_cap_factor,omitempty"`
	// IRTol is the refinement backward-error threshold (default 1e-15,
	// "accurate to Float64 precision").
	IRTol float64 `json:"ir_tol,omitempty"`
	// IRMaxIter caps refinement (paper: 1000).
	IRMaxIter int `json:"ir_max_iter,omitempty"`
	// ShadowSample is the shadow-diagnosis sampling stride: the
	// diagnose experiment measures every ShadowSample-th format
	// operation against the high-precision reference (1 = every
	// operation; 0 = the shadow package default). Part of the JSON
	// encoding — and therefore of runner cache keys — because the
	// stride changes the reported telemetry.
	ShadowSample int `json:"shadow_sample,omitempty"`
	// Ops, when non-nil, observes every format operation the
	// experiment performs (see arith.Observe). Excluded from JSON — and
	// therefore from runner cache keys — because observing never
	// changes results.
	Ops *arith.AtomicOpCounts `json:"-"`
	// Ctx, when non-nil, is the run's cancellation context: experiment
	// loops check it between solver calls and the solver loops check
	// it at their per-iteration checkpoints, so a driver timeout stops
	// in-flight work promptly. Excluded from JSON — and therefore from
	// runner cache keys — because cancellation never changes rows that
	// do complete (a canceled experiment returns an error, never a
	// partial result).
	Ctx context.Context `json:"-"`
}

// ctx returns the run context, defaulting to context.Background.
func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// canceled reports whether the run context has expired; experiment
// loops use it to bail out between solver calls.
func (o Options) canceled() bool { return o.ctx().Err() != nil }

// Canonical returns the options with all defaults filled in, so two
// spellings of the same configuration hash to the same cache key.
func (o Options) Canonical() Options { return o.fill() }

// format returns f observed by o.Ops, or f itself when counting is
// off. The wrapper is transparent: results are bit-identical either
// way.
func (o Options) format(f arith.Format) arith.Format {
	if o.Ops == nil {
		return f
	}
	return arith.Observe(f, o.Ops)
}

// solve runs cfg in format f on m's system through core.SolveCtx, the
// dispatcher of positd's solves and jobs, under the run's context and
// observed by o.Ops. With the caps and tolerances the CLIs accept, its
// only error is the context's.
func (o Options) solve(m *matgen.Matrix, cfg core.Config, f arith.Format) (core.Solution, error) {
	cfg.Format = f.Name()
	var h core.Hooks
	if o.Ops != nil {
		h.Observers = []arith.Observer{o.Ops}
	}
	return core.SolveCtx(o.ctx(), core.Problem{A: m.A, B: m.B}, cfg, h)
}

func (o Options) fill() Options {
	if o.CGTol == 0 {
		o.CGTol = 1e-5
	}
	if o.CGCapFactor == 0 {
		o.CGCapFactor = 10
	}
	if o.IRTol == 0 {
		o.IRTol = 1e-15
	}
	if o.IRMaxIter == 0 {
		o.IRMaxIter = 1000
	}
	return o
}

// suiteEntry is one per-name singleflight slot: the mutex-protected
// map only hands out entries, and generation happens under the
// entry's own once, so distinct matrices generate concurrently while
// concurrent requests for the same matrix do the work exactly once.
type suiteEntry struct {
	once sync.Once
	m    *matgen.Matrix
}

var (
	suiteMu    sync.Mutex
	suiteCache = map[string]*suiteEntry{}
)

// suite returns the requested matrices (all of Table I when names is
// nil), generating each at most once per process. The per-name
// singleflight keeps parallel experiment jobs from serializing on one
// global lock while unrelated matrices generate.
func suite(names []string) []*matgen.Matrix {
	if names == nil {
		for _, t := range matgen.TableI {
			names = append(names, t.Name)
		}
	}
	entries := make([]*suiteEntry, len(names))
	suiteMu.Lock()
	for i, name := range names {
		e, ok := suiteCache[name]
		if !ok {
			e = &suiteEntry{}
			suiteCache[name] = e
		}
		entries[i] = e
	}
	suiteMu.Unlock()
	out := make([]*matgen.Matrix, len(names))
	for i, e := range entries {
		name := names[i]
		e.once.Do(func() {
			t, err := matgen.TargetByName(name)
			if err != nil {
				// The runner's safeRun recovers suite panics into job
				// failures; runner_test exercises that path.
				panic(err) //lint:allow panics recovered by runner.safeRun, tested in runner_test
			}
			e.m = matgen.Generate(t)
		})
		if e.m == nil {
			// A concurrent caller's generation panicked; re-surface
			// the failure here instead of returning a nil matrix.
			panic("experiments: generation of " + name + " failed in a concurrent caller") //lint:allow panics recovered by runner.safeRun, tested in runner_test
		}
		out[i] = e.m
	}
	return out
}

// Suite exposes the cached replica suite for tools and examples.
func Suite(names []string) []*matgen.Matrix { return suite(names) }
