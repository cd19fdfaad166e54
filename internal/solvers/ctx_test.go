package solvers_test

import (
	"context"
	"errors"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/solvers"
)

// A context that reports expiry after a fixed number of Err calls,
// so cancellation lands deterministically mid-loop.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	return context.DeadlineExceeded
}

func TestCGCtxMatchesCG(t *testing.T) {
	a := laplacian1D(40)
	_, b := onesRHS(a)
	for _, f := range []arith.Format{arith.Float64, arith.Posit32e2} {
		an := a.ToFormat(f, false)
		bn := linalg.VecFromFloat64(f, b)
		plain := solvers.CG(an, bn, 1e-5, 10*a.N)
		got, err := solvers.CGCtx(context.Background(), an, bn, 1e-5, 10*a.N)
		if err != nil {
			t.Fatalf("%s: CGCtx: %v", f.Name(), err)
		}
		if got.Iterations != plain.Iterations || got.Converged != plain.Converged ||
			got.RelResidual != plain.RelResidual {
			t.Fatalf("%s: CGCtx diverged from CG: %+v vs %+v", f.Name(), got, plain)
		}
		for i := range got.X {
			if got.X[i] != plain.X[i] {
				t.Fatalf("%s: x[%d] differs", f.Name(), i)
			}
		}
		if len(got.History) != got.Iterations {
			t.Fatalf("%s: history has %d entries for %d iterations", f.Name(), len(got.History), got.Iterations)
		}
		if got.History[len(got.History)-1] != got.RelResidual {
			t.Fatalf("%s: final history entry %g != RelResidual %g",
				f.Name(), got.History[len(got.History)-1], got.RelResidual)
		}
	}
}

func TestCGCtxCancelsPromptly(t *testing.T) {
	a := laplacian1D(60)
	_, b := onesRHS(a)
	an := a.ToFormat(arith.Float64, false)
	bn := linalg.VecFromFloat64(arith.Float64, b)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := solvers.CGCtx(ctx, an, bn, 1e-12, 10*a.N)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: err = %v, want context.Canceled", err)
	}
	if res.Iterations != 0 {
		t.Fatalf("pre-canceled ctx ran %d iterations", res.Iterations)
	}

	// Cancellation mid-run stops at the checkpoint, keeping the
	// iterations already done.
	res, err = solvers.CGCtx(&countdownCtx{context.Background(), 5}, an, bn, 1e-12, 10*a.N)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("countdown ctx: err = %v, want deadline exceeded", err)
	}
	if res.Iterations != 5 {
		t.Fatalf("countdown ctx stopped after %d iterations, want 5", res.Iterations)
	}
}

func TestCholeskyCtxCancel(t *testing.T) {
	a := laplacian1D(30).ToDense().ToFormat(arith.Float64, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := solvers.CholeskyCtx(ctx, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("CholeskyCtx: err = %v, want context.Canceled", err)
	}
	if errors.Is(solvers.ErrNotPositiveDefinite, context.Canceled) {
		t.Fatal("sanity: breakdown error must stay distinguishable from cancellation")
	}
	// Uncanceled: bit-identical to the plain entry point.
	want, err := solvers.Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := solvers.CholeskyCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.A {
		if want.A[i] != got.A[i] {
			t.Fatalf("factor entry %d differs", i)
		}
	}
}

func TestMixedIRCtxCancel(t *testing.T) {
	a := laplacian1D(30)
	_, b := onesRHS(a)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := solvers.MixedIRCheckpointed(ctx, a, b, arith.Float16, solvers.IRScaling{}, solvers.IROptions{}, solvers.IRCheckpointOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MixedIRCheckpointed: err = %v, want context.Canceled", err)
	}

	plain := solvers.MixedIR(a, b, arith.Float16, solvers.IRScaling{}, solvers.IROptions{})
	got, err := solvers.MixedIRCheckpointed(context.Background(), a, b, arith.Float16, solvers.IRScaling{}, solvers.IROptions{}, solvers.IRCheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != plain.Iterations || got.Converged != plain.Converged ||
		got.BackwardError != plain.BackwardError {
		t.Fatalf("MixedIRCheckpointed diverged from MixedIR: %+v vs %+v", got, plain)
	}
	if len(got.History) == 0 {
		t.Fatal("MixedIRCheckpointed recorded no backward-error history")
	}
	if got.History[len(got.History)-1] != got.BackwardError {
		t.Fatalf("final history entry %g != BackwardError %g",
			got.History[len(got.History)-1], got.BackwardError)
	}
}
