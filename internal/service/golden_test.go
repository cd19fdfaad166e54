package service

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.json from the current responses")

// wallMS matches the one timing field of a solve response.
var wallMS = regexp.MustCompile(`"wall_ms":[^,}]*`)

// TestSolveGolden pins the /v1/solve response bytes, wall_ms zeroed, of
// serve-mix's three solve configurations on bcsstk01 with return_x and
// on the lund_b upload, a float16 Cholesky breakdown, and a CG run
// whose tol x₀ = 0 already meets. Each spec submitted as a job must
// return the same bytes. Regenerate with `go test -run SolveGolden
// -update` only for a change meant to move a solve's results.
func TestSolveGolden(t *testing.T) {
	lundB, err := os.ReadFile(filepath.Join("..", "..", "testdata", "suite", "lund_b.mtx"))
	if err != nil {
		t.Fatal(err)
	}
	bcsstk01 := map[string]any{"matrix": "bcsstk01", "return_x": true}
	upload := map[string]any{"matrix_market": string(lundB)}
	cg := map[string]any{"solver": "cg", "format": "posit32es2", "rescale": true}
	cholesky := map[string]any{"solver": "cholesky", "format": "posit16es1", "rescale": true}
	ir := map[string]any{"solver": "ir", "format": "posit16es2", "higham": true}
	cases := []struct {
		file string
		req  []map[string]any // merged in order
	}{
		{"cg-posit32es2-rescale", []map[string]any{bcsstk01, cg}},
		{"cholesky-posit16es1-rescale", []map[string]any{bcsstk01, cholesky}},
		{"ir-posit16es2-higham", []map[string]any{bcsstk01, ir}},
		{"cholesky-float16-breakdown", []map[string]any{{"matrix": "bcsstk01", "solver": "cholesky", "format": "float16"}}},
		{"cg-float32-tol2", []map[string]any{{"matrix": "bcsstk01", "solver": "cg", "format": "float32", "tol": 2}}},
		{"upload-lund_b-cg", []map[string]any{upload, cg}},
		{"upload-lund_b-cholesky", []map[string]any{upload, cholesky}},
		{"upload-lund_b-ir", []map[string]any{upload, ir}},
	}
	_, ts := newTestServer(t, Config{})
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			req := map[string]any{}
			for _, m := range c.req {
				for k, v := range m {
					req[k] = v
				}
			}
			body := mustJSON(t, req)
			resp := post(t, ts.URL+"/v1/solve", body)
			got := []byte(readBody(t, resp) + "\n") // the body as sent
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, got)
			}
			got = wallMS.ReplaceAll(got, []byte(`"wall_ms":0`))
			path := filepath.Join("testdata", "golden", "solve-"+c.file+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("reading golden (run with -update to create): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: response bytes differ from the golden (%d vs %d bytes)", path, len(got), len(want))
				}
			}

			v := decodeJob(t, post(t, ts.URL+"/v1/jobs", `{"solve":`+body+`}`), http.StatusAccepted)
			done := decodeJob(t, get(t, ts.URL+"/v1/jobs/"+v.ID+"?wait=25s"), http.StatusOK)
			if done.State != "succeeded" {
				t.Fatalf("job %s: %+v", v.ID, done)
			}
			job := append(wallMS.ReplaceAll(done.Result, []byte(`"wall_ms":0`)), '\n')
			if !bytes.Equal(job, got) {
				t.Errorf("job result differs from the /v1/solve response:\n%s\nvs\n%s", job, got)
			}
		})
	}
}
