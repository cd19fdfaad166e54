package solvers_test

import (
	"context"
	"errors"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/solvers"
)

// resultsEqual asserts two CG results are bit-identical in every
// deterministic field.
func cgResultsEqual(t *testing.T, label string, got, want solvers.CGResult) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged ||
		got.Failed != want.Failed || got.RelResidual != want.RelResidual {
		t.Fatalf("%s: result diverged: %+v vs %+v", label, got, want)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: history length %d vs %d", label, len(got.History), len(want.History))
	}
	for i := range got.History {
		if got.History[i] != want.History[i] {
			t.Fatalf("%s: history[%d] = %g vs %g", label, i, got.History[i], want.History[i])
		}
	}
	for i := range got.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("%s: x[%d] differs: %g vs %g", label, i, got.X[i], want.X[i])
		}
	}
}

func TestCGResumeBitIdentical(t *testing.T) {
	a := laplacian1D(40)
	_, b := onesRHS(a)
	for _, f := range []arith.Format{arith.Float64, arith.Posit32e2, arith.Float16} {
		an := a.ToFormat(f, false)
		bn := linalg.VecFromFloat64(f, b)
		tol, cap := 1e-6, 10*a.N

		want, err := solvers.CGCtx(context.Background(), an, bn, tol, cap)
		if err != nil {
			t.Fatalf("%s: CGCtx: %v", f.Name(), err)
		}

		// Capture checkpoints every 3 iterations; the checkpointed run
		// itself must match the plain one exactly.
		var ckpts []*solvers.CGCheckpoint
		got, err := solvers.CGCheckpointed(context.Background(), an, bn, tol, cap,
			solvers.CGCheckpointOptions{Every: 3, OnCheckpoint: func(c *solvers.CGCheckpoint) error {
				ckpts = append(ckpts, c)
				return nil
			}})
		if err != nil {
			t.Fatalf("%s: CGCheckpointed: %v", f.Name(), err)
		}
		cgResultsEqual(t, f.Name()+" checkpointing run", got, want)
		if len(ckpts) == 0 {
			t.Fatalf("%s: no checkpoints emitted over %d iterations", f.Name(), want.Iterations)
		}

		// Resuming from every captured checkpoint reproduces the
		// uninterrupted result bit for bit.
		for _, c := range ckpts {
			res, err := solvers.CGCheckpointed(context.Background(), an, bn, tol, cap,
				solvers.CGCheckpointOptions{Resume: c})
			if err != nil {
				t.Fatalf("%s: resume at iter %d: %v", f.Name(), c.Iter, err)
			}
			cgResultsEqual(t, f.Name()+" resume", res, want)
		}
	}
}

func TestCGCheckpointAbort(t *testing.T) {
	a := laplacian1D(40)
	_, b := onesRHS(a)
	an := a.ToFormat(arith.Float64, false)
	bn := linalg.VecFromFloat64(arith.Float64, b)

	boom := errors.New("journal full")
	res, err := solvers.CGCheckpointed(context.Background(), an, bn, 1e-12, 10*a.N,
		solvers.CGCheckpointOptions{Every: 4, OnCheckpoint: func(*solvers.CGCheckpoint) error { return boom }})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the checkpoint sink's error", err)
	}
	if res.Iterations != 4 {
		t.Fatalf("aborted after %d iterations, want 4", res.Iterations)
	}
	if len(res.X) != a.N {
		t.Fatalf("partial result has no iterate (|x| = %d)", len(res.X))
	}
}

func TestCGResumeShapeMismatch(t *testing.T) {
	a := laplacian1D(20)
	_, b := onesRHS(a)
	an := a.ToFormat(arith.Float64, false)
	bn := linalg.VecFromFloat64(arith.Float64, b)
	bad := &solvers.CGCheckpoint{Iter: 1, X: make([]arith.Num, 3), R: make([]arith.Num, 3), P: make([]arith.Num, 3)}
	if _, err := solvers.CGCheckpointed(context.Background(), an, bn, 1e-6, 10, solvers.CGCheckpointOptions{Resume: bad}); err == nil {
		t.Fatal("mismatched checkpoint accepted")
	}
}

func TestIRResumeBitIdentical(t *testing.T) {
	a := laplacian1D(30)
	_, b := onesRHS(a)
	for _, f := range []arith.Format{arith.Float16, arith.Posit16e1} {
		want := solvers.MixedIR(a, b, f, solvers.IRScaling{}, solvers.IROptions{})
		if want.FactorFailed {
			t.Fatalf("%s: factorization failed; pick a tamer test matrix", f.Name())
		}

		var ckpts []*solvers.IRCheckpoint
		got, err := solvers.MixedIRCheckpointed(context.Background(), a, b, f, solvers.IRScaling{}, solvers.IROptions{},
			solvers.IRCheckpointOptions{Every: 2, OnCheckpoint: func(c *solvers.IRCheckpoint) error {
				ckpts = append(ckpts, c)
				return nil
			}})
		if err != nil {
			t.Fatalf("%s: MixedIRCheckpointed: %v", f.Name(), err)
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged ||
			got.BackwardError != want.BackwardError || got.FactorError != want.FactorError {
			t.Fatalf("%s: checkpointing run diverged: %+v vs %+v", f.Name(), got, want)
		}
		if len(ckpts) == 0 {
			t.Skipf("%s: converged in %d passes, no checkpoint emitted", f.Name(), want.Iterations)
		}

		for _, c := range ckpts {
			res, err := solvers.MixedIRCheckpointed(context.Background(), a, b, f, solvers.IRScaling{}, solvers.IROptions{},
				solvers.IRCheckpointOptions{Resume: c})
			if err != nil {
				t.Fatalf("%s: resume at pass %d: %v", f.Name(), c.Iter, err)
			}
			if res.Iterations != want.Iterations || res.Converged != want.Converged ||
				res.BackwardError != want.BackwardError {
				t.Fatalf("%s: resumed run diverged: %+v vs %+v", f.Name(), res, want)
			}
			if len(res.History) != len(want.History) {
				t.Fatalf("%s: resumed history length %d vs %d", f.Name(), len(res.History), len(want.History))
			}
			for i := range res.History {
				if res.History[i] != want.History[i] {
					t.Fatalf("%s: history[%d] = %g vs %g", f.Name(), i, res.History[i], want.History[i])
				}
			}
			for i := range res.X {
				if res.X[i] != want.X[i] {
					t.Fatalf("%s: x[%d] differs", f.Name(), i)
				}
			}
		}
	}
}
