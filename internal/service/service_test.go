package service

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"positlab/internal/arith"
	"positlab/internal/runner"
)

// testRegistry returns a registry with cheap deterministic specs plus
// the channels controlling the blocking one.
func testRegistry(t *testing.T) (reg *runner.Registry, started chan struct{}, release chan struct{}) {
	t.Helper()
	reg = runner.NewRegistry()
	started = make(chan struct{}, 64)
	release = make(chan struct{})
	mustReg := func(s runner.Spec) {
		t.Helper()
		if err := reg.Register(s); err != nil {
			t.Fatalf("Register(%s): %v", s.ID, err)
		}
	}
	mustReg(runner.Spec{ID: "demo", Title: "demo rows", Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
		return &runner.Result{
			Body:      "demo body\n",
			Metrics:   map[string]float64{"rows": 3},
			Artifacts: []runner.Artifact{{Name: "demo.csv", Kind: runner.CSV, Content: "a,b\n1,2\n"}},
		}, nil
	}})
	mustReg(runner.Spec{ID: "block", Title: "blocks until released", Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &runner.Result{Body: "released\n"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	mustReg(runner.Spec{ID: "boom", Title: "panics", Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
		panic("kaboom")
	}})
	return reg, started, release
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("close body: %v", err)
	}
	return strings.TrimSuffix(string(b), "\n")
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	body := readBody(t, resp)
	if !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("body = %q, want status ok", body)
	}
}

func TestConvertGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/convert",
		`{"from":"float64","to":"float32","values":[1,0.5,1e300]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	got := readBody(t, resp)
	want := `{"from":"Float64","to":"Float32","count":3,"results":[` +
		`{"in":1,"out":1,"bits":"0x3f800000","abs_err":0,"rel_err":0,"exact":true},` +
		`{"in":0.5,"out":0.5,"bits":"0x3f000000","abs_err":0,"rel_err":0,"exact":true},` +
		`{"in":1e+300,"out":null,"bits":"0x7f800000","abs_err":null,"rel_err":null,"exact":false}],` +
		`"stats":{"max_abs_err":0,"max_rel_err":0,"mean_rel_err":0,"exact":2}}`
	if got != want {
		t.Fatalf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}
}

func TestConvertRounding(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/convert",
		`{"from":"float64","to":"posit16es1","values":[3.141592653589793]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out convertResponse
	if err := json.Unmarshal([]byte(readBody(t, resp)), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	r := out.Results[0]
	if r.Exact {
		t.Fatal("pi converts exactly to posit16es1?")
	}
	if r.RelErr <= 0 || r.RelErr > 1e-3 {
		t.Fatalf("rel_err = %v, want small positive", r.RelErr)
	}
	if out.Stats.MaxRelErr != r.RelErr {
		t.Fatalf("stats.max_rel_err = %v, want %v", out.Stats.MaxRelErr, r.RelErr)
	}
}

// TestEncodingBitsMatchesReference checks /v1/convert's encodings of
// every registered format of at most 16 bits: for the value of every
// pattern, and for ±0, ±Inf and NaN, encodingBits returns the pattern
// and the width that the format's integer-pipeline reference gives.
func TestEncodingBitsMatchesReference(t *testing.T) {
	formats := 0
	for _, name := range arith.Names() {
		f := arith.MustByName(name)
		var ref arith.Format
		var width int
		if c, ok := arith.PositConfig(f); ok {
			ref, width = arith.Posit(c), c.N()
		} else if m, ok := arith.MiniConfig(f); ok {
			ref, width = arith.Mini(m, f.Name()), m.Width()
		}
		if ref == nil || width > 16 {
			continue
		}
		formats++
		xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
		for p := 0; p < 1<<width; p++ {
			xs = append(xs, ref.ToFloat64(arith.Num(p)))
		}
		for _, x := range xs {
			bits, w := encodingBits(f, x)
			if want := uint64(ref.FromFloat64(x)); bits != want || w != width {
				t.Fatalf("%s: encodingBits(%g) = %#x, %d bits; reference %#x, %d bits", name, x, bits, w, want, width)
			}
		}
	}
	if formats != 14 {
		t.Fatalf("checked %d formats of at most 16 bits, want 14", formats)
	}
}

func TestConvertBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4, MaxBodyBytes: 256})
	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed", `{"from":`, 400},
		{"unknown field", `{"fromm":"float64"}`, 400},
		{"unknown format", `{"from":"float99","to":"float32","values":[1]}`, 400},
		{"oversize batch", `{"from":"float64","to":"float32","values":[1,2,3,4,5]}`, 413},
		{"oversize body", `{"from":"float64","to":"float32","values":[` + strings.Repeat("1,", 200) + `1]}`, 413},
	}
	for _, c := range cases {
		resp := post(t, ts.URL+"/v1/convert", c.body)
		body := readBody(t, resp)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d (body %s)", c.name, resp.StatusCode, c.status, body)
		}
		if !strings.Contains(body, `"error"`) {
			t.Errorf("%s: body %q has no error field", c.name, body)
		}
	}
}

func TestSolveCGNamedMatrix(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/solve",
		`{"matrix":"bcsstk01","solver":"cg","format":"posit32es2"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200: %s", resp.StatusCode, readBody(t, resp))
	}
	var out solveResponse
	if err := json.Unmarshal([]byte(readBody(t, resp)), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.N != 48 || out.Matrix != "bcsstk01" {
		t.Fatalf("matrix = %s n = %d, want bcsstk01 n=48", out.Matrix, out.N)
	}
	if out.Failed || out.Iterations == 0 {
		t.Fatalf("run: %+v, want progress", out)
	}
	if len(out.History) != out.Iterations {
		t.Fatalf("history has %d entries for %d iterations", len(out.History), out.Iterations)
	}
	if out.Ops.Total() == 0 {
		t.Fatal("ops not counted")
	}
}

func TestSolveCholeskyUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mm := "%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 4\n2 2 5\n3 3 6\n2 1 1\n"
	reqBody, err := json.Marshal(map[string]any{
		"matrix_market": mm, "solver": "cholesky", "format": "float32",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/v1/solve", string(reqBody))
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var out solveResponse
	if err := json.Unmarshal([]byte(readBody(t, resp)), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !out.Converged || out.Failed {
		t.Fatalf("run: %+v, want converged", out)
	}
	if be := float64(out.BackwardError); be <= 0 || be > 1e-6 {
		t.Fatalf("backward_error = %v, want small positive", be)
	}
}

func TestSolveIRHigham(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/solve",
		`{"matrix":"bcsstk01","solver":"ir","format":"posit16es1","higham":true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var out solveResponse
	if err := json.Unmarshal([]byte(readBody(t, resp)), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Failed {
		t.Fatalf("factorization failed under Higham scaling: %+v", out)
	}
	if len(out.History) == 0 {
		t.Fatal("no backward-error history")
	}
}

func TestSolveBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxMatrixN: 2})
	asym := "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 4\n2 2 5\n1 2 1\n"
	big := "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 4\n2 2 5\n3 3 6\n"
	empty := "%%MatrixMarket matrix coordinate real symmetric\n0 0 0\n"
	cases := []struct {
		name, body string
	}{
		{"no matrix", `{"solver":"cg","format":"float32"}`},
		{"both matrices", `{"matrix":"bcsstk01","matrix_market":"x","solver":"cg","format":"float32"}`},
		{"unknown matrix", `{"matrix":"nope","solver":"cg","format":"float32"}`},
		{"unknown solver", `{"matrix":"bcsstk01","solver":"qr","format":"float32"}`},
		{"unknown format", `{"matrix":"bcsstk01","solver":"cg","format":"float99"}`},
		{"b length", `{"matrix":"bcsstk01","solver":"cg","format":"float32","b":[1,2]}`},
		{"asymmetric upload", mustJSON(t, map[string]any{"matrix_market": asym, "solver": "cg", "format": "float32"})},
		{"oversize matrix", mustJSON(t, map[string]any{"matrix_market": big, "solver": "cg", "format": "float32"})},
		{"empty upload", mustJSON(t, map[string]any{"matrix_market": empty, "solver": "ir", "format": "float32"})},
		{"negative tol cg", `{"matrix":"bcsstk01","solver":"cg","format":"float32","tol":-1}`},
		{"negative tol ir", `{"matrix":"bcsstk01","solver":"ir","format":"float16","tol":-1}`},
		{"negative max_iter", `{"matrix":"bcsstk01","solver":"cg","format":"float32","max_iter":-1}`},
		{"higham with cg", `{"matrix":"bcsstk01","solver":" CG ","format":"Posit(32,2)","higham":true}`},
		{"higham with cholesky", `{"matrix":"bcsstk01","solver":"cholesky","format":"float32","rescale":true,"higham":true}`},
		{"rescale with ir", `{"matrix":"bcsstk01","solver":"ir","format":"bfloat16","higham":true,"rescale":true}`},
	}
	for _, c := range cases {
		resp := post(t, ts.URL+"/v1/solve", c.body)
		body := readBody(t, resp)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status = %d, want 400 (body %s)", c.name, resp.StatusCode, body)
		}
	}
}

// TestSolveToleranceMetAtStart: a CG solve whose tol x₀ = 0 already
// meets stops at iteration 0 and reports the residual of x = 0, which
// is 1, rather than omitting it.
func TestSolveToleranceMetAtStart(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/solve", `{"matrix":"bcsstk01","solver":"cg","format":"float32","tol":2}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out struct {
		Iterations  int     `json:"iterations"`
		Converged   bool    `json:"converged"`
		RelResidual float64 `json:"rel_residual"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Iterations != 0 || !out.Converged || out.RelResidual != 1 {
		t.Fatalf("iterations %d, converged %v, rel_residual %v; want 0, true, 1 (%s)",
			out.Iterations, out.Converged, out.RelResidual, body)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestExperimentServedAndCached(t *testing.T) {
	reg, _, _ := testRegistry(t)
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Registry: reg, RunnerConfig: runner.Config{Cache: cache}})

	resp := get(t, ts.URL+"/v1/experiments/demo")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, readBody(t, resp))
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", xc)
	}
	first := readBody(t, resp)
	if !strings.Contains(first, "demo body") || !strings.Contains(first, `"rows":3`) {
		t.Fatalf("body = %s", first)
	}
	if strings.Contains(first, "demo.csv") {
		t.Fatalf("artifacts served without ?artifacts=1: %s", first)
	}

	resp = get(t, ts.URL+"/v1/experiments/demo")
	if xc := resp.Header.Get("X-Cache"); xc != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", xc)
	}
	if second := readBody(t, resp); second != first {
		t.Fatalf("cached response differs:\n%s\n%s", second, first)
	}
	if st := s.Cache().Stats(); st.Hits == 0 {
		t.Fatalf("cache stats %+v, want a hit", st)
	}

	resp = get(t, ts.URL+"/v1/experiments/demo?artifacts=1")
	if body := readBody(t, resp); !strings.Contains(body, "demo.csv") {
		t.Fatalf("artifacts missing: %s", body)
	}
}

func TestExperimentUnknown404(t *testing.T) {
	reg, _, _ := testRegistry(t)
	_, ts := newTestServer(t, Config{Registry: reg})
	resp := get(t, ts.URL+"/v1/experiments/nope")
	body := readBody(t, resp)
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d, want 404 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, "demo") {
		t.Fatalf("404 body should list known experiments: %s", body)
	}
}

func TestExperimentPanicIs500(t *testing.T) {
	reg, _, _ := testRegistry(t)
	_, ts := newTestServer(t, Config{Registry: reg})
	resp := get(t, ts.URL+"/v1/experiments/boom")
	body := readBody(t, resp)
	if resp.StatusCode != 500 {
		t.Fatalf("status = %d, want 500 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, "panic") {
		t.Fatalf("body = %s, want panic message", body)
	}
	// The server survives.
	if resp := get(t, ts.URL+"/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz after panic = %d", resp.StatusCode)
	} else {
		_ = readBody(t, resp)
	}
}

func TestSaturation429(t *testing.T) {
	reg, started, release := testRegistry(t)
	defer close(release)
	_, ts := newTestServer(t, Config{Registry: reg, MaxInflight: 1})

	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/experiments/block")
		if err != nil {
			done <- -1
			return
		}
		defer func() { _ = resp.Body.Close() }()
		done <- resp.StatusCode
	}()
	<-started // the blocking request is admitted and inside the spec

	resp := post(t, ts.URL+"/v1/convert", `{"from":"float64","to":"float32","values":[1]}`)
	body := readBody(t, resp)
	if resp.StatusCode != 429 {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	// Health bypasses admission even when saturated.
	if resp := get(t, ts.URL+"/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz while saturated = %d", resp.StatusCode)
	} else {
		_ = readBody(t, resp)
	}

	release <- struct{}{}
	if code := <-done; code != 200 {
		t.Fatalf("blocking request finished with %d, want 200", code)
	}
}

func TestRequestTimeout504(t *testing.T) {
	reg, _, _ := testRegistry(t)
	_, ts := newTestServer(t, Config{Registry: reg, RequestTimeout: 50 * time.Millisecond})
	start := time.Now()
	resp := get(t, ts.URL+"/v1/experiments/block")
	body := readBody(t, resp)
	if resp.StatusCode != 504 {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v; cancellation did not propagate", elapsed)
	}
}

func TestGracefulDrain(t *testing.T) {
	reg, _, _ := testRegistry(t)
	s := New(Config{Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	resp := get(t, url+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	_ = readBody(t, resp)

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v, want nil on clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

func TestDebugMetrics(t *testing.T) {
	reg, _, _ := testRegistry(t)
	_, ts := newTestServer(t, Config{Registry: reg})
	for i := 0; i < 3; i++ {
		resp := post(t, ts.URL+"/v1/convert", `{"from":"float64","to":"posit16es1","values":[1,2,3]}`)
		_ = readBody(t, resp)
	}
	resp := get(t, ts.URL+"/debug/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal([]byte(readBody(t, resp)), &snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	rs, ok := snap.Routes["POST /v1/convert"]
	if !ok || rs.Count != 3 {
		t.Fatalf("routes = %+v, want 3 convert requests", snap.Routes)
	}
	if rs.Statuses["200"] != 3 {
		t.Fatalf("statuses = %+v", rs.Statuses)
	}
	if snap.Cache.Misses == 0 || snap.Cache.Hits == 0 {
		t.Fatalf("cache = %+v, want both misses and hits", snap.Cache)
	}
	if snap.OpsTotal != 0 {
		// Conversions count into Conv, not arithmetic ops.
		t.Fatalf("ops_total = %d, want 0 for pure conversions", snap.OpsTotal)
	}
	if snap.Ops.Conv == 0 {
		t.Fatalf("ops.Conv = 0, want conversions counted")
	}
}

func TestPprofGated(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp := get(t, off.URL+"/debug/pprof/cmdline")
	_ = readBody(t, resp)
	if resp.StatusCode != 404 {
		t.Fatalf("pprof disabled: status = %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp = get(t, on.URL+"/debug/pprof/cmdline")
	_ = readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("pprof enabled: status = %d, want 200", resp.StatusCode)
	}
	resp = get(t, on.URL+"/debug/pprof/")
	body := readBody(t, resp)
	if resp.StatusCode != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status = %d, want 200 with profile listing", resp.StatusCode)
	}
}
