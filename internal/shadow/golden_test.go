package shadow_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/core"
	"positlab/internal/shadow"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.json from the current diagnoses")

// TestGoldenTelemetry pins the report bytes of six diagnoses of the
// checked-in bcsstk01 replica, wall_ms zeroed. The wide formats are
// measured by the 256-bit reference, so any change to how it computes
// ref or rel must leave these files unchanged; the two Higham-scaled
// refinements pin the ir path, posit16es1 at the default stride (the
// paper-16bit benchmark probe) against the float64 reference.
// Regenerate with `go test -run GoldenTelemetry -update` only for a
// change meant to move the telemetry.
func TestGoldenTelemetry(t *testing.T) {
	p, err := core.ProblemFromMTX(filepath.Join("..", "..", "testdata", "suite", "bcsstk01.mtx"), nil)
	if err != nil {
		t.Fatal(err)
	}
	full := shadow.Config{SampleEvery: 1}
	cases := []struct {
		file string
		opt  shadow.Options
		ref  string // the reference engine the format gets
	}{
		{"cg-posit32es2-rescaled", shadow.Options{Solver: "cg", Format: arith.Posit32e2, Rescale: true, Sample: full}, "bigfp256"},
		{"cholesky-posit32es3", shadow.Options{Solver: "cholesky", Format: arith.Posit32e3, Sample: full}, "bigfp256"},
		{"cg-float32", shadow.Options{Solver: "cg", Format: arith.Float32}, "bigfp256"},
		{"cholesky-float64", shadow.Options{Solver: "cholesky", Format: arith.Float64, Sample: full}, "bigfp256"},
		{"ir-posit16es1-higham", shadow.Options{Solver: "ir", Format: arith.Posit16e1, Higham: true}, "float64"},
		{"ir-posit32es2-higham", shadow.Options{Solver: "ir", Format: arith.Posit32e2, Higham: true, Sample: full}, "bigfp256"},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			rep, err := shadow.Diagnose(context.Background(), p.A, p.B, "bcsstk01", c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Telemetry.Reference != c.ref {
				t.Fatalf("reference %q, want %s", rep.Telemetry.Reference, c.ref)
			}
			rep.WallMS = 0
			got, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", c.file+".json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: report bytes differ from the golden (%d vs %d bytes)", path, len(got), len(want))
			}
		})
	}
}
