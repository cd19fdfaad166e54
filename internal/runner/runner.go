// Package runner is the experiment-orchestration subsystem: a typed
// registry of experiment specs, a dependency-aware worker-pool
// scheduler, a content-addressed on-disk result cache, and a
// progress/metrics layer that renders live events and a final
// machine-readable report.
//
// Experiments register themselves (typically from init functions) into
// the Default registry:
//
//	runner.Register(runner.Spec{
//		ID:    "fig6",
//		Title: "CG iterations, unscaled",
//		Run:   func(ctx context.Context, env *runner.Env) (*runner.Result, error) { ... },
//	})
//
// and a driver executes any subset with Registry.Run, which
// topologically orders specs by Deps, fans independent jobs out across
// a worker pool, consults the cache, and reports per-job wall time and
// operation counts.
package runner

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"positlab/internal/arith"
)

// Spec is one registered experiment.
type Spec struct {
	// ID is the unique experiment identifier ("fig6", "table1", ...).
	ID string
	// Title is the human-readable one-line description.
	Title string
	// Deps lists experiment IDs that must complete before this one
	// starts. Declared deps that are selected for a run are always
	// scheduled first; a failed dep fails its dependents without
	// running them.
	Deps []string
	// Run computes the experiment. Its final rendered text and
	// artifacts go into the Result; solver work should respect ctx
	// cancellation where practical.
	Run func(ctx context.Context, env *Env) (*Result, error)
}

// Env is the per-job environment handed to Spec.Run.
type Env struct {
	// Options is the run-wide option value supplied by the driver
	// (for this repo, an experiments.Options). Nil when none was set.
	Options any
	// Ops, when non-nil, is the job's operation counter, so runs.json
	// can report per-job arithmetic work: the experiments pass it to
	// core.SolveCtx as an observer hook, or attach it to their formats
	// with arith.Observe where they call a solver directly. Nil when
	// instrumentation is off.
	Ops *arith.AtomicOpCounts
}

// Artifact kinds, matching the CLI's output sinks.
const (
	CSV = "csv"
	SVG = "svg"
)

// Artifact is one file-shaped output of an experiment (a CSV of the
// rows or an SVG rendering).
type Artifact struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Content string `json:"content"`
}

// Result is the cacheable outcome of one experiment job.
type Result struct {
	// Body is the rendered text table/figure, exactly as the serial
	// CLI printed it.
	Body string `json:"body"`
	// Artifacts are the experiment's CSV/SVG outputs; on a cache hit
	// they are written back out without recomputing any rows.
	Artifacts []Artifact `json:"artifacts,omitempty"`
	// Metrics are experiment-reported scalars (solver iteration
	// totals, row counts) surfaced into the run report.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Registry holds experiment specs in registration order.
type Registry struct {
	mu    sync.Mutex
	specs map[string]Spec
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{specs: map[string]Spec{}}
}

// Default is the process-wide registry that package experiments
// registers into.
var Default = NewRegistry()

// Register adds a spec. It rejects empty or duplicate IDs and specs
// without a Run function.
func (r *Registry) Register(s Spec) error {
	if s.ID == "" {
		return fmt.Errorf("runner: spec with empty ID")
	}
	if s.Run == nil {
		return fmt.Errorf("runner: spec %q has no Run function", s.ID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.specs[s.ID]; dup {
		return fmt.Errorf("runner: duplicate spec %q", s.ID)
	}
	r.specs[s.ID] = s
	r.order = append(r.order, s.ID)
	return nil
}

// Register adds a spec to the Default registry and panics on misuse
// (duplicate or empty ID) — registration happens at init time, where
// a panic is the useful failure mode.
func Register(s Spec) {
	if err := Default.Register(s); err != nil {
		panic(err) //lint:allow panics init-time registration; a panic is the documented failure mode
	}
}

// Lookup returns the spec registered under id.
func (r *Registry) Lookup(id string) (Spec, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.specs[id]
	return s, ok
}

// IDs returns all registered IDs in registration order.
func (r *Registry) IDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// SortedIDs returns all registered IDs sorted lexically.
func (r *Registry) SortedIDs() []string {
	ids := r.IDs()
	sort.Strings(ids)
	return ids
}
