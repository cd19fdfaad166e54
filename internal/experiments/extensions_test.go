package experiments_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/experiments"
)

func TestExtFFT(t *testing.T) {
	rows, err := experiments.ExtFFT()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]experiments.ExtFFTRow{}
	for _, r := range rows {
		byName[r.Format] = r
	}
	// Precision ordering and the §VII hypothesis: posit16 beats
	// float16; posit(32,2) beats float32 on this unit-range signal.
	if !(byName["Posit(16,2)"].ForwardErr < byName["Float16"].ForwardErr) {
		t.Errorf("posit(16,2) %g !< float16 %g",
			byName["Posit(16,2)"].ForwardErr, byName["Float16"].ForwardErr)
	}
	if !(byName["Posit(32,2)"].ForwardErr < byName["Float32"].ForwardErr) {
		t.Errorf("posit(32,2) %g !< float32 %g",
			byName["Posit(32,2)"].ForwardErr, byName["Float32"].ForwardErr)
	}
	if byName["Float64"].ForwardErr > 1e-12 {
		t.Errorf("float64 self-error %g", byName["Float64"].ForwardErr)
	}
	for _, r := range rows {
		if r.RoundTripErr < 0 || (r.Format != "Float64" && r.RoundTripErr == 0) {
			t.Errorf("%s round-trip err %g", r.Format, r.RoundTripErr)
		}
	}
	if s := experiments.RenderExtFFT(rows); !strings.Contains(s, "forward err") {
		t.Error("render missing content")
	}
}

func TestExtShock(t *testing.T) {
	rows, err := experiments.ExtShock()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]experiments.ExtShockRow{}
	for _, r := range rows {
		byName[r.Format] = r
		if r.Failed {
			t.Errorf("%s shock run failed", r.Format)
		}
	}
	if !(byName["Float32"].DensityErr < byName["Float16"].DensityErr) {
		t.Error("float32 should beat float16 on the shock tube")
	}
	if s := experiments.RenderExtShock(rows); !strings.Contains(s, "density") {
		t.Error("render missing content")
	}
}

func TestExtGMRES(t *testing.T) {
	rows := experiments.ExtGMRES(smallOpt)
	for _, r := range rows {
		for i := range experiments.IRFormats {
			p, g := r.Plain[i], r.GMRES[i]
			// Same factorization stage: failure flags must agree.
			if p.FactorFailed != g.FactorFailed {
				t.Errorf("%s: factor flags diverge", r.Matrix)
			}
			if p.FactorFailed {
				continue
			}
			// GMRES corrections never lose to plain corrections by
			// more than a couple of outer iterations.
			if p.Converged && g.Converged && g.Iterations > p.Iterations+2 {
				t.Errorf("%s: GMRES-IR %d vs plain %d", r.Matrix, g.Iterations, p.Iterations)
			}
			if p.Converged && !g.Converged {
				t.Errorf("%s: GMRES-IR failed where plain IR converged", r.Matrix)
			}
		}
	}
	if s := experiments.RenderExtGMRES(rows, 1000); !strings.Contains(s, "GMRES-IR") {
		t.Error("render missing content")
	}
}

// The Peclet sweep is the §VI hypothesis test: float64 BiCG converges,
// iterates grow with nonsymmetry, and 32-bit formats lose convergence
// once the transient iterates dwarf the working precision. The sweep
// runs on the options' observed formats.
func TestExtBiCGPeclet(t *testing.T) {
	var ops arith.AtomicOpCounts
	rows, err := experiments.ExtBiCGPeclet(experiments.Options{Ops: &ops}, []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if c := ops.Snapshot(); c.Mul == 0 || c.Conv == 0 {
		t.Errorf("ops %+v: the sweep's operations went unobserved", c)
	}
	if len(rows) != 2 {
		t.Fatal("row count")
	}
	if !rows[0].Float64Converged || !rows[0].PositConverged {
		t.Error("p=0 (symmetric Laplacian) must converge everywhere")
	}
	if !rows[1].Float64Converged {
		t.Error("float64 BiCG must converge at p=10")
	}
	if rows[1].Float64MaxIterate <= rows[0].Float64MaxIterate {
		t.Errorf("iterate growth with Peclet not observed: %g vs %g",
			rows[1].Float64MaxIterate, rows[0].Float64MaxIterate)
	}
	if s := experiments.RenderExtBiCGPeclet(rows); !strings.Contains(s, "Peclet") {
		t.Error("render missing content")
	}
}

// A canceled sweep returns the context's error and runs no solve.
func TestExtBiCGPecletCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ops arith.AtomicOpCounts
	rows, err := experiments.ExtBiCGPeclet(experiments.Options{Ctx: ctx, Ops: &ops}, nil)
	if !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("canceled sweep: %d rows, err %v; want none and context.Canceled", len(rows), err)
	}
	if c := ops.Snapshot(); c != (arith.OpCounts{}) {
		t.Errorf("canceled sweep ran format arithmetic: %+v", c)
	}
}

func TestExtBiCG(t *testing.T) {
	rows := experiments.ExtBiCG(smallOpt)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BiCGMaxIterate <= 0 {
			t.Errorf("%s: iterate growth not tracked", r.Matrix)
		}
	}
	if s := experiments.RenderExtBiCG(rows); !strings.Contains(s, "BiCG") {
		t.Error("render missing content")
	}
}
