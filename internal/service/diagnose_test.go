package service

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestDiagnoseEndpoint smokes POST /v1/diagnose end to end on a suite
// matrix: a shadowed CG run must return a well-formed report with
// non-empty telemetry, and a completed run must show up in the shadow
// gauges of /debug/metrics.
func TestDiagnoseEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/diagnose",
		`{"matrix":"bcsstk01","solver":"cg","format":"posit32es2","rescale":true,"sample_every":1,"include_csv":true}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var rep struct {
		Matrix      string `json:"matrix"`
		Solver      string `json:"solver"`
		Format      string `json:"format"`
		N           int    `json:"n"`
		SampleEvery int    `json:"sample_every"`
		Iterations  int    `json:"iterations"`
		Trace       []struct {
			Iter int `json:"iter"`
		} `json:"trace"`
		Telemetry struct {
			TotalOps    uint64 `json:"total_ops"`
			MeasuredOps uint64 `json:"measured_ops"`
			Stats       []struct {
				Op      string `json:"op"`
				Count   uint64 `json:"count"`
				RelHist []struct {
					Log2  int    `json:"log2"`
					Count uint64 `json:"count"`
				} `json:"rel_hist"`
			} `json:"stats"`
		} `json:"telemetry"`
		TraceCSV string `json:"trace_csv"`
		StatsCSV string `json:"stats_csv"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("decode report: %v\n%s", err, body)
	}
	if rep.Matrix != "bcsstk01" || rep.Solver != "cg" || rep.N != 48 || rep.SampleEvery != 1 {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.Iterations == 0 || len(rep.Trace) == 0 {
		t.Fatalf("no solver progress in report: %+v", rep)
	}
	if rep.Telemetry.TotalOps == 0 || rep.Telemetry.MeasuredOps != rep.Telemetry.TotalOps {
		t.Fatalf("full sampling measured %d of %d ops", rep.Telemetry.MeasuredOps, rep.Telemetry.TotalOps)
	}
	if len(rep.Telemetry.Stats) == 0 {
		t.Fatal("empty telemetry stats")
	}
	hist := 0
	for _, s := range rep.Telemetry.Stats {
		hist += len(s.RelHist)
	}
	if hist == 0 {
		t.Fatal("all error histograms empty")
	}
	if !strings.HasPrefix(rep.TraceCSV, "iter,") || !strings.HasPrefix(rep.StatsCSV, "label,") {
		t.Fatalf("CSV artifacts missing: %q %q", rep.TraceCSV, rep.StatsCSV)
	}

	mresp := get(t, ts.URL+"/debug/metrics")
	mbody := readBody(t, mresp)
	var metrics struct {
		Shadow struct {
			Runs        uint64 `json:"runs"`
			ShadowedOps uint64 `json:"shadowed_ops"`
		} `json:"shadow"`
	}
	if err := json.Unmarshal([]byte(mbody), &metrics); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	if metrics.Shadow.Runs != 1 || metrics.Shadow.ShadowedOps != rep.Telemetry.TotalOps {
		t.Fatalf("shadow gauges: %+v, want 1 run / %d ops", metrics.Shadow, rep.Telemetry.TotalOps)
	}
}

// TestDiagnoseEndpointValidation covers the 400 paths.
func TestDiagnoseEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"unknown format":       `{"matrix":"bcsstk01","solver":"cg","format":"posit99"}`,
		"unknown matrix":       `{"matrix":"nope","solver":"cg","format":"posit16es1"}`,
		"unknown solver":       `{"matrix":"bcsstk01","solver":"lu","format":"posit16es1"}`,
		"no system":            `{"solver":"cg","format":"posit16es1"}`,
		"negative tol":         `{"matrix":"bcsstk01","solver":"cg","format":"posit16es1","tol":-1}`,
		"negative iters":       `{"matrix":"bcsstk01","solver":"ir","format":"posit16es1","max_iter":-1}`,
		"empty upload":         `{"matrix_market":"%%MatrixMarket matrix coordinate real symmetric\n0 0 0\n","solver":"cg","format":"posit16es1"}`,
		"higham with cg":       `{"matrix":"bcsstk01","solver":"cg","format":"posit32es2","rescale":true,"higham":true}`,
		"higham with cholesky": `{"matrix":"bcsstk01","solver":"cholesky","format":"posit16es1","higham":true}`,
		"rescale with ir":      `{"matrix":"bcsstk01","solver":"ir","format":"posit16es1","rescale":true}`,
	} {
		resp := post(t, ts.URL+"/v1/diagnose", body)
		if b := readBody(t, resp); resp.StatusCode != 400 {
			t.Errorf("%s: status = %d, want 400 (%s)", name, resp.StatusCode, b)
		}
	}
}

// TestDiagnoseReportsOnEveryPath covers three reports that end early.
// A system that is not positive definite even in float64 ends before
// the format run, and its report still echoes the effective sampling
// stride. A CG run whose tol x₀ = 0 already meets (tol ≥ 1) stops at
// iteration 0, and its final residual is that of x = 0, which is 1. A
// float16 Cholesky solve of diag(0.001, 1) with b = (1000, 1) factors,
// but its solution x₀ = 10⁶ overflows the format, so the run failed.
// Each report's progress must equal /v1/solve's for the same request.
func TestDiagnoseReportsOnEveryPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	type report struct {
		SampleEvery   int     `json:"sample_every"`
		Iterations    int     `json:"iterations"`
		Converged     bool    `json:"converged"`
		Failed        bool    `json:"failed"`
		FinalResidual float64 `json:"final_residual"`
		Telemetry     struct {
			SampleEvery int `json:"sample_every"`
		} `json:"telemetry"`
	}
	run := func(path, body string) report {
		t.Helper()
		resp := post(t, ts.URL+path, body)
		b := readBody(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status = %d, body %s", path, resp.StatusCode, b)
		}
		var rep report
		if err := json.Unmarshal([]byte(b), &rep); err != nil {
			t.Fatalf("decode %s: %v\n%s", path, err, b)
		}
		return rep
	}
	diagnose := func(body string) report {
		t.Helper()
		rep := run("/v1/diagnose", body)
		sol := run("/v1/solve", body)
		if rep.Iterations != sol.Iterations || rep.Converged != sol.Converged || rep.Failed != sol.Failed {
			t.Errorf("%s: diagnose reports iterations %d, converged %v, failed %v; solve %d, %v, %v",
				body, rep.Iterations, rep.Converged, rep.Failed, sol.Iterations, sol.Converged, sol.Failed)
		}
		return rep
	}

	singular := "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 4\n"
	rep := diagnose(mustJSON(t, map[string]any{"matrix_market": singular, "solver": "cholesky", "format": "posit16es1"}))
	if !rep.Failed || rep.SampleEvery != 64 || rep.Telemetry.SampleEvery != 64 {
		t.Errorf("reference breakdown: failed %v, sample_every %d, telemetry sample_every %d; want true, 64, 64",
			rep.Failed, rep.SampleEvery, rep.Telemetry.SampleEvery)
	}

	rep = diagnose(`{"matrix":"bcsstk01","solver":"cg","format":"posit32es2","tol":2}`)
	if rep.Iterations != 0 || !rep.Converged || rep.FinalResidual != 1 {
		t.Errorf("tol 2: iterations %d, converged %v, final_residual %v; want 0, true, 1",
			rep.Iterations, rep.Converged, rep.FinalResidual)
	}

	overflow := "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 0.001\n2 2 1\n"
	rep = diagnose(mustJSON(t, map[string]any{"matrix_market": overflow, "b": []float64{1000, 1}, "solver": "cholesky", "format": "float16"}))
	if !rep.Failed || rep.Converged {
		t.Errorf("overflowing solution: converged %v, failed %v; want false, true", rep.Converged, rep.Failed)
	}
}
