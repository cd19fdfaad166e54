package solvers_test

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/matgen"
	"positlab/internal/scaling"
	"positlab/internal/shadow"
	"positlab/internal/solvers"
)

// kernelEveryRow is the right-looking factorization without the
// zero-multiplier row skip: every row of every trailing update goes
// through the format's TrailingUpdateKernel. On an observed format each
// call is told to the observers, and a Sampler is handed each selected
// operation measured against its reference, so it is the oracle of the
// telemetry the skip reports through arith.ObserveExact.
func kernelEveryRow(a *linalg.DenseNum) (*linalg.DenseNum, error) {
	f := a.F
	bk := arith.BulkOf(f)
	n := a.N
	r := linalg.NewDenseNum(f, n)
	for i := 0; i < n; i++ {
		copy(r.Row(i)[i:], a.Row(i)[i:])
	}
	for j := 0; j < n; j++ {
		rj := r.Row(j)
		s := rj[j]
		if f.Bad(s) || f.IsZero(s) || f.Less(s, f.Zero()) {
			return nil, solvers.ErrNotPositiveDefinite
		}
		piv := f.Sqrt(s)
		if f.Bad(piv) || f.IsZero(piv) {
			return nil, solvers.ErrNotPositiveDefinite
		}
		rj[j] = piv
		bk.DivKernel(piv, rj[j+1:])
		if linalg.HasBad(f, rj[j+1:]) {
			return nil, solvers.ErrNotPositiveDefinite
		}
		for i := j + 1; i < n; i++ {
			bk.TrailingUpdateKernel(f.Neg(rj[i]), rj[i:], r.Row(i)[i:])
		}
	}
	return r, nil
}

// observedFactor is one factorization under shadow.Wrap and an op
// counter: its Snapshot JSON, op counts, factor and error.
type observedFactor struct {
	snap     []byte
	snapshot shadow.Snapshot
	ops      arith.OpCounts
	r        *linalg.DenseNum
	err      error
}

func observeFactor(t *testing.T, factor func(*linalg.DenseNum) (*linalg.DenseNum, error), f arith.Format, every int, a *linalg.Dense) observedFactor {
	t.Helper()
	sf, rec := shadow.Wrap(f, shadow.Config{SampleEvery: every})
	var c arith.AtomicOpCounts
	r, err := factor(a.ToFormat(arith.Observe(sf, &c), false))
	o := observedFactor{snapshot: rec.Snapshot(), ops: c.Snapshot(), r: r, err: err}
	if o.snap, err = json.Marshal(o.snapshot); err != nil {
		t.Fatal(err)
	}
	return o
}

// checkSkipTelemetry requires solvers.Cholesky to report what
// kernelEveryRow does on a: the same Snapshot JSON, op counts, factor
// bits and breakdown. It returns Cholesky's snapshot.
func checkSkipTelemetry(t *testing.T, name string, f arith.Format, every int, a *linalg.Dense) shadow.Snapshot {
	t.Helper()
	got := observeFactor(t, solvers.Cholesky, f, every, a)
	want := observeFactor(t, kernelEveryRow, f, every, a)
	if got.err != want.err {
		t.Fatalf("%s %s every=%d: error %v, every-row oracle %v", name, f.Name(), every, got.err, want.err)
	}
	if got.ops != want.ops {
		t.Fatalf("%s %s every=%d: op counts %+v, every-row oracle %+v", name, f.Name(), every, got.ops, want.ops)
	}
	if !bytes.Equal(got.snap, want.snap) {
		t.Fatalf("%s %s every=%d: snapshot differs from the every-row oracle\n got: %s\nwant: %s",
			name, f.Name(), every, got.snap, want.snap)
	}
	if got.err == nil {
		for i := range want.r.A {
			if got.r.A[i] != want.r.A[i] {
				t.Fatalf("%s %s every=%d: factor differs at flat index %d", name, f.Name(), every, i)
			}
		}
	}
	return got.snapshot
}

// TestCholeskySkipTelemetry: skipping the zero-multiplier rows changes
// no op count and no byte of shadow telemetry. The matrices run
// unscaled (where the 16-bit formats break down) and with the paper's
// Cholesky rescaling, at sampling strides 1, 3 and 64.
func TestCholeskySkipTelemetry(t *testing.T) {
	type system struct {
		name string
		a    *linalg.Sparse
	}
	systems := []system{{"laplacian", laplacian1D(120)}}
	for _, name := range []string{"bcsstk01", "nos1"} {
		tgt, err := matgen.TargetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, system{name, matgen.Generate(tgt).A})
	}
	formats := []arith.Format{arith.Posit16e2, arith.Float16, arith.BFloat16, arith.Posit32e2, arith.Float32}
	for _, sys := range systems {
		scaled := sys.a.Clone()
		scaling.RescaleSystemCholesky(scaled, nil)
		for _, v := range []struct {
			name string
			a    *linalg.Dense
		}{{sys.name, sys.a.ToDense()}, {sys.name + "/rescaled", scaled.ToDense()}} {
			for _, f := range formats {
				for _, every := range []int{1, 3, 64} {
					if testing.Short() && every == 1 && sys.name == "nos1" {
						continue
					}
					checkSkipTelemetry(t, v.name, f, every, v.a)
				}
			}
		}
	}
}

// overflowMatrix is a seeded sparse symmetric matrix of order 8 to 27
// whose 16-bit IEEE factorization overflows: diagonal in [1, 2), and
// 12% of the off-diagonal pairs nonzero in (−300, 300). One nonzero in
// 20 is scaled by 1000, which Float16 rounds to ±Inf on input.
func overflowMatrix(seed uint64) *linalg.Dense {
	rng := rand.New(rand.NewPCG(seed, 0x0f10))
	n := 8 + rng.IntN(20)
	d := linalg.NewDense(n)
	for i := 0; i < n; i++ {
		d.Set(i, i, 1+rng.Float64())
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.12 {
				v := 600*rng.Float64() - 300
				if rng.IntN(20) == 0 {
					v *= 1000
				}
				d.Set(i, j, v)
				d.Set(j, i, v)
			}
		}
	}
	return d
}

// TestCholeskySkipTelemetryOverflow: a non-finite entry, in the input
// or left by a trailing update that overflows, makes a Sampler count
// the operations on its row as bad. A skipped row must report those as
// the kernel would, so such a row is pinned to the kernel on input, or
// rescanned before it is skipped after an update. The grid must hold
// trailing cells with bad operations.
func TestCholeskySkipTelemetryOverflow(t *testing.T) {
	badCells := 0
	for _, f := range []arith.Format{arith.Float16, arith.BFloat16, arith.Posit16e1} {
		for seed := uint64(0); seed < 300; seed++ {
			a := overflowMatrix(seed)
			for _, every := range []int{1, 3} {
				snap := checkSkipTelemetry(t, "overflow", f, every, a)
				for _, st := range snap.Stats {
					if st.Site == "trailing" && st.Bad > 0 {
						badCells++
					}
				}
			}
		}
	}
	if badCells == 0 {
		t.Fatal("no trailing cell with bad operations: the grid does not overflow")
	}
}
