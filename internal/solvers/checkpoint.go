package solvers

import (
	"fmt"

	"positlab/internal/arith"
)

// This file defines the resumable iteration state of the long-running
// solver loops. A checkpoint captures, as exact format bit patterns,
// everything the loop reads at the top of an iteration; resuming from
// it replays the remaining iterations with arithmetic bit-identical to
// an uninterrupted run. The durable job subsystem (internal/jobs)
// journals these at a configurable cadence so a crashed or drained job
// continues from its last checkpoint instead of restarting.

// CGCheckpoint is the complete CG iteration state at the top of
// iteration Iter (0-based: Iter iterations have fully completed).
// X, R, P and RR are bit patterns in the matrix's format; History is
// the float64 reporting series accumulated so far. A resumed run's
// remaining iterates are bit-identical to the uninterrupted run's.
type CGCheckpoint struct {
	Iter    int         `json:"iter"`
	X       []arith.Num `json:"x"`
	R       []arith.Num `json:"r"`
	P       []arith.Num `json:"p"`
	RR      arith.Num   `json:"rr"`
	History []float64   `json:"history"`
}

// CGCheckpointOptions configures checkpoint emission and resume for
// CGCheckpointed. The zero value checkpoints nothing and starts fresh,
// making CGCheckpointed identical to CGCtx.
type CGCheckpointOptions struct {
	// Every emits a checkpoint after every Every completed iterations
	// (<= 0: never). Emission never changes the iterates.
	Every int
	// OnCheckpoint receives each emitted checkpoint; the slices are
	// fresh copies the callee may retain. A non-nil error aborts the
	// run and is returned to the caller (the partial result carries the
	// iterations completed so far).
	OnCheckpoint func(*CGCheckpoint) error
	// Resume, when non-nil, restarts the loop from a previously emitted
	// checkpoint instead of from x0 = 0. The caller must pass the same
	// system (a, b), tolerance, and cap as the original run.
	Resume *CGCheckpoint
	// OnIteration, when non-nil, observes the state after each
	// completed iteration iter (1-based): the current iterate and
	// recurrence residual as format bit patterns. The slices are the
	// live loop state — read-only views the callee must not modify or
	// retain past the call. Observation never perturbs the iterates;
	// the shadow-diagnosis divergence traces hang off this hook.
	OnIteration func(iter int, x, r []arith.Num)
}

// valid reports a structurally sound checkpoint for an n-dimensional
// system.
func (c *CGCheckpoint) valid(n int) error {
	if c.Iter < 0 || len(c.X) != n || len(c.R) != n || len(c.P) != n {
		return fmt.Errorf("solvers: CG checkpoint shape (iter=%d, |x|=%d, |r|=%d, |p|=%d) does not match n=%d",
			c.Iter, len(c.X), len(c.R), len(c.P), n)
	}
	if len(c.History) < c.Iter {
		return fmt.Errorf("solvers: CG checkpoint history has %d entries for %d iterations", len(c.History), c.Iter)
	}
	return nil
}

// IRCheckpoint is the mixed-precision iterative-refinement state after
// Iter completed refinement passes: the current float64 iterate and the
// backward-error history. The low-precision factorization is not
// stored — it is recomputed deterministically on resume, so the resumed
// run remains bit-identical to an uninterrupted one.
type IRCheckpoint struct {
	Iter    int       `json:"iter"`
	X       []float64 `json:"x"`
	History []float64 `json:"history"`
}

// IRCheckpointOptions configures checkpoint emission and resume for
// MixedIRCheckpointed; the zero value makes it identical to MixedIR.
type IRCheckpointOptions struct {
	// Every emits a checkpoint after every Every completed refinement
	// passes (<= 0: never).
	Every int
	// OnCheckpoint receives each emitted checkpoint (fresh copies); a
	// non-nil error aborts the run.
	OnCheckpoint func(*IRCheckpoint) error
	// Resume restarts refinement from a prior checkpoint; the
	// factorization is recomputed from the same inputs first.
	Resume *IRCheckpoint
	// OnIteration, when non-nil, observes each refinement pass at the
	// point its backward error is recorded: iter corrections have been
	// applied to x (0 for the un-refined start), and eta is the
	// backward error of that iterate. x is live loop state — a
	// read-only view the callee must not modify or retain.
	OnIteration func(iter int, x []float64, eta float64)
}

func (c *IRCheckpoint) valid(n int) error {
	if c.Iter < 0 || len(c.X) != n {
		return fmt.Errorf("solvers: IR checkpoint shape (iter=%d, |x|=%d) does not match n=%d", c.Iter, len(c.X), n)
	}
	if len(c.History) < c.Iter {
		return fmt.Errorf("solvers: IR checkpoint history has %d entries for %d passes", len(c.History), c.Iter)
	}
	return nil
}

func copyNums(v []arith.Num) []arith.Num { return append([]arith.Num(nil), v...) }

func copyFloats(v []float64) []float64 {
	if v == nil {
		return nil
	}
	return append([]float64(nil), v...)
}
