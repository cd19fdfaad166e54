package arith_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/matgen"
	"positlab/internal/scaling"
	"positlab/internal/shadow"
	"positlab/internal/solvers"
)

// The bulk zero-scale rule (a zero-scale trailing update's sampled
// operations handed to Exact without evaluation) against its per-op
// oracle, arith.ObservePerOp, which samples those operations one by
// one and has the Recorder measure each against its reference.

type wrapFunc func(arith.Format, shadow.Config) (arith.Format, *shadow.Recorder)

func wrapPerOp(f arith.Format, cfg shadow.Config) (arith.Format, *shadow.Recorder) {
	rec := shadow.NewRecorder(f, cfg)
	return arith.ObservePerOp(f, rec), rec
}

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
		panic(err)
	}
	return s
}

// zeroRowFormats covers both fast engines (table-driven 16-bit posit
// and minifloats, roundTables posit32), the native Float32, and both
// reference engines (float64 for 16 bits, big.Float above).
var zeroRowFormats = []arith.Format{
	arith.Posit16e2, arith.Float16, arith.BFloat16, arith.Posit32e2, arith.Float32,
}

func snapshotJSON(t *testing.T, rec *shadow.Recorder) []byte {
	t.Helper()
	data, err := json.Marshal(rec.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// choleskySnapshot factors a in a shadow-wrapped f, breakdowns
// included, and returns the Snapshot JSON.
func choleskySnapshot(t *testing.T, wrap wrapFunc, f arith.Format, every int, a *linalg.Dense) []byte {
	t.Helper()
	sf, rec := wrap(f, shadow.Config{SampleEvery: every})
	_, _ = solvers.Cholesky(a.ToFormat(sf, false)) // a breakdown is a result here
	return snapshotJSON(t, rec)
}

// TestZeroScaleBulkMatchesPerOp is the oracle of the bulk recording of
// zero-scale trailing rows: a shadowed Cholesky's Snapshot JSON is
// byte-identical whether those rows are counted in bulk (shadow.Wrap)
// or measured op by op against the reference (ObservePerOp). The matrices run
// unscaled (where the 16-bit formats break down) and with the paper's
// Cholesky rescaling.
func TestZeroScaleBulkMatchesPerOp(t *testing.T) {
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
	for _, sys := range systems {
		scaled := sys.a.Clone()
		scaling.RescaleSystemCholesky(scaled, nil)
		for _, v := range []struct {
			name string
			a    *linalg.Dense
		}{{sys.name, sys.a.ToDense()}, {sys.name + "/rescaled", scaled.ToDense()}} {
			for _, f := range zeroRowFormats {
				for _, every := range []int{1, 3, 64} {
					if testing.Short() && every == 1 && sys.name == "nos1" {
						continue
					}
					bulk := choleskySnapshot(t, shadow.Wrap, f, every, v.a)
					perOp := choleskySnapshot(t, wrapPerOp, f, every, v.a)
					if !bytes.Equal(bulk, perOp) {
						t.Fatalf("%s %s every=%d: bulk snapshot differs from per-op replay\nbulk:   %s\nper-op: %s",
							v.name, f.Name(), every, bulk, perOp)
					}
				}
			}
		}
	}
}

// TestZeroScaleBulkBadOps drives the wrapped TrailingUpdateKernel
// directly with a ±0 scale and non-finite operands in x and in w —
// which Cholesky never passes, since it stops at a non-finite pivot
// row — and asserts the bulk and per-op recordings agree, bad counts
// included.
func TestZeroScaleBulkBadOps(t *testing.T) {
	for _, f := range zeroRowFormats {
		vals := []float64{0, math.Copysign(0, -1), 1, -2.5, math.NaN(), math.Inf(1), math.Inf(-1), f.MaxValue()}
		var x, w []arith.Num
		for _, a := range vals {
			for _, b := range vals {
				x = append(x, f.FromFloat64(a))
				w = append(w, f.FromFloat64(b))
			}
		}
		for _, nalpha := range []arith.Num{f.Zero(), f.Neg(f.Zero())} {
			for _, every := range []int{1, 3} {
				var snaps [2][]byte
				for k, wrap := range []wrapFunc{shadow.Wrap, wrapPerOp} {
					sf, rec := wrap(f, shadow.Config{SampleEvery: every})
					rec.SetLabel("direct")
					arith.BulkOf(sf).TrailingUpdateKernel(nalpha, x, append([]arith.Num(nil), w...))
					snaps[k] = snapshotJSON(t, rec)
					var bad uint64
					for _, st := range rec.Snapshot().Stats {
						bad += st.Bad
					}
					if bad == 0 {
						t.Fatalf("%s every=%d: no bad ops recorded for non-finite operands", f.Name(), every)
					}
				}
				if !bytes.Equal(snaps[0], snaps[1]) {
					t.Fatalf("%s nalpha=%g every=%d: bulk snapshot differs from per-op replay\nbulk:   %s\nper-op: %s",
						f.Name(), f.ToFloat64(nalpha), every, snaps[0], snaps[1])
				}
			}
		}
	}
}
