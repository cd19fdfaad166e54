package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"positlab/internal/arith"
	"positlab/internal/jobs"
	"positlab/internal/linalg"
	"positlab/internal/mmarket"
	"positlab/internal/posit"
	"positlab/internal/solvers"
)

// laplacianMM renders the 1D Laplacian (2 on the diagonal, -1 off) as
// a MatrixMarket upload — a cheap SPD system whose CG solve runs long
// enough to checkpoint when max_iter is raised and tol lowered.
func laplacianMM(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%%%%MatrixMarket matrix coordinate real symmetric\n%d %d %d\n", n, n, 2*n-1)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&sb, "%d %d 2\n", i, i)
	}
	for i := 2; i <= n; i++ {
		fmt.Fprintf(&sb, "%d %d -1\n", i, i-1)
	}
	return sb.String()
}

func del(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response, wantStatus int) jobView {
	t.Helper()
	body := readBody(t, resp)
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d: %s", resp.StatusCode, wantStatus, body)
	}
	var v jobView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("decode job view: %v (%s)", err, body)
	}
	return v
}

// pollJob GETs the job until pred is satisfied or the deadline hits.
func pollJob(t *testing.T, base, id string, pred func(jobView) bool) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := decodeJob(t, get(t, base+"/v1/jobs/"+id), 200)
		if pred(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached the wanted condition; last view %+v", id, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobSolveLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := mustJSON(t, map[string]any{
		"solve":    map[string]any{"matrix_market": laplacianMM(20), "solver": "cg", "format": "float64"},
		"priority": "interactive",
	})
	v := decodeJob(t, post(t, ts.URL+"/v1/jobs", body), http.StatusAccepted)
	if v.ID == "" || v.Kind != "solve" || v.State != "queued" || v.Priority != "interactive" {
		t.Fatalf("submit view = %+v", v)
	}

	// Long-poll to completion.
	done := decodeJob(t, get(t, ts.URL+"/v1/jobs/"+v.ID+"?wait=25s"), 200)
	if done.State != "succeeded" || done.FinishedAt == "" {
		t.Fatalf("job = %+v, want succeeded", done)
	}
	var out solveResponse
	if err := json.Unmarshal(done.Result, &out); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if !out.Converged || out.N != 20 || out.Solver != "cg" {
		t.Fatalf("result = %+v, want converged cg n=20", out)
	}

	// The result must match the synchronous endpoint's, field for
	// field, modulo timing and op counters.
	sync := post(t, ts.URL+"/v1/solve",
		mustJSON(t, map[string]any{"matrix_market": laplacianMM(20), "solver": "cg", "format": "float64"}))
	syncBody := readBody(t, sync)
	if sync.StatusCode != 200 {
		t.Fatalf("sync solve: %d %s", sync.StatusCode, syncBody)
	}
	if !reflect.DeepEqual(scrubTiming(t, done.Result), scrubTiming(t, []byte(syncBody))) {
		t.Fatalf("async result diverges from sync:\n%s\nvs\n%s", done.Result, syncBody)
	}
}

// scrubTiming decodes a solveResponse JSON to a map without the
// fields that legitimately differ between two runs.
func scrubTiming(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("decode: %v", err)
	}
	delete(m, "wall_ms")
	delete(m, "ops")
	return m
}

func TestJobExperimentLifecycle(t *testing.T) {
	reg, _, _ := testRegistry(t)
	_, ts := newTestServer(t, Config{Registry: reg})
	body := `{"experiment":{"name":"demo","artifacts":true}}`
	v := decodeJob(t, post(t, ts.URL+"/v1/jobs", body), http.StatusAccepted)
	done := pollJob(t, ts.URL, v.ID, func(v jobView) bool { return v.State == "succeeded" })
	var out experimentResponse
	if err := json.Unmarshal(done.Result, &out); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if out.ID != "demo" || out.Body != "demo body\n" || len(out.Artifacts) != 1 {
		t.Fatalf("result = %+v", out)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	reg, _, _ := testRegistry(t)
	_, ts := newTestServer(t, Config{Registry: reg})
	cases := []struct {
		name, body string
	}{
		{"neither kind", `{}`},
		{"both kinds", `{"solve":{"matrix":"bcsstk01","solver":"cg","format":"float32"},"experiment":{"name":"demo"}}`},
		{"bad priority", `{"experiment":{"name":"demo"},"priority":"urgent"}`},
		{"negative retries", `{"experiment":{"name":"demo"},"max_retries":-1}`},
		{"unknown experiment", `{"experiment":{"name":"nope"}}`},
		{"bad solver", `{"solve":{"matrix":"bcsstk01","solver":"qr","format":"float32"}}`},
		{"bad format", `{"solve":{"matrix":"bcsstk01","solver":"cg","format":"float99"}}`},
		{"bad system", `{"solve":{"matrix":"nope","solver":"cg","format":"float32"}}`},
		{"negative tol", `{"solve":{"matrix":"bcsstk01","solver":"cg","format":"float32","tol":-1}}`},
		{"higham with cg", `{"solve":{"matrix":"bcsstk01","solver":"cg","format":"float32","higham":true}}`},
		{"higham with cholesky", `{"solve":{"matrix":"bcsstk01","solver":"cholesky","format":"float32","higham":true}}`},
		{"rescale with ir", `{"solve":{"matrix":"bcsstk01","solver":"ir","format":"float16","rescale":true}}`},
	}
	for _, c := range cases {
		resp := post(t, ts.URL+"/v1/jobs", c.body)
		body := readBody(t, resp)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status = %d, want 400 (%s)", c.name, resp.StatusCode, body)
		}
	}
	// Nothing invalid reached the journal.
	if n := len(decodeJobList(t, get(t, ts.URL+"/v1/jobs")).Jobs); n != 0 {
		t.Fatalf("%d jobs stored after rejected submissions", n)
	}
}

type jobListResponse struct {
	Jobs  []jobView `json:"jobs"`
	Count int       `json:"count"`
}

func decodeJobList(t *testing.T, resp *http.Response) jobListResponse {
	t.Helper()
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("list status = %d: %s", resp.StatusCode, body)
	}
	var out jobListResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	return out
}

func TestJobListFilters(t *testing.T) {
	reg, _, _ := testRegistry(t)
	_, ts := newTestServer(t, Config{Registry: reg})
	var ids []string
	for i := 0; i < 3; i++ {
		v := decodeJob(t, post(t, ts.URL+"/v1/jobs", `{"experiment":{"name":"demo"}}`), http.StatusAccepted)
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		pollJob(t, ts.URL, id, func(v jobView) bool { return v.State == "succeeded" })
	}
	all := decodeJobList(t, get(t, ts.URL+"/v1/jobs"))
	if all.Count != 3 || all.Jobs[0].ID != ids[2] {
		t.Fatalf("list = %+v, want 3 newest-first", all)
	}
	if l := decodeJobList(t, get(t, ts.URL+"/v1/jobs?limit=1")); l.Count != 1 {
		t.Fatalf("limit ignored: %+v", l)
	}
	if l := decodeJobList(t, get(t, ts.URL+"/v1/jobs?state=queued")); l.Count != 0 {
		t.Fatalf("state filter: %+v", l)
	}
	if l := decodeJobList(t, get(t, ts.URL+"/v1/jobs?kind=experiment&state=succeeded")); l.Count != 3 {
		t.Fatalf("kind+state filter: %+v", l)
	}
	if resp := get(t, ts.URL+"/v1/jobs?limit=x"); resp.StatusCode != 400 {
		t.Fatalf("bad limit status = %d", resp.StatusCode)
	} else {
		_ = readBody(t, resp)
	}
}

func TestJobCancelRunning(t *testing.T) {
	reg, started, release := testRegistry(t)
	defer close(release)
	_, ts := newTestServer(t, Config{Registry: reg})
	v := decodeJob(t, post(t, ts.URL+"/v1/jobs", `{"experiment":{"name":"block"}}`), http.StatusAccepted)
	<-started // the job's runner is now blocked inside the experiment
	got := decodeJob(t, del(t, ts.URL+"/v1/jobs/"+v.ID), 200)
	if got.ID != v.ID {
		t.Fatalf("cancel view = %+v", got)
	}
	final := pollJob(t, ts.URL, v.ID, func(v jobView) bool { return v.State != "queued" && v.State != "running" })
	if final.State != "canceled" {
		t.Fatalf("job = %+v, want canceled", final)
	}
	// Canceling again conflicts.
	resp := del(t, ts.URL+"/v1/jobs/"+v.ID)
	if body := readBody(t, resp); resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel = %d (%s), want 409", resp.StatusCode, body)
	}
	// Unknown job is 404 for GET and DELETE alike.
	for _, resp := range []*http.Response{get(t, ts.URL+"/v1/jobs/zzz"), del(t, ts.URL+"/v1/jobs/zzz")} {
		if body := readBody(t, resp); resp.StatusCode != 404 {
			t.Fatalf("unknown job = %d (%s), want 404", resp.StatusCode, body)
		}
	}
}

func TestJobQueueFull429(t *testing.T) {
	reg, started, release := testRegistry(t)
	defer close(release)
	_, ts := newTestServer(t, Config{Registry: reg, JobWorkers: 1, MaxQueuedJobs: 1})
	// First job occupies the single worker...
	decodeJob(t, post(t, ts.URL+"/v1/jobs", `{"experiment":{"name":"block"}}`), http.StatusAccepted)
	<-started
	// ...second fills the queue...
	decodeJob(t, post(t, ts.URL+"/v1/jobs", `{"experiment":{"name":"block"}}`), http.StatusAccepted)
	// ...third is refused.
	resp := post(t, ts.URL+"/v1/jobs", `{"experiment":{"name":"block"}}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestJobDrainResumeBitIdentical is the graceful half of the recovery
// contract: a checkpointing CG job is interrupted by a pool drain,
// the store is reopened by a second server, and the resumed job's
// result must be byte-identical (solution, history, iteration count)
// to an uninterrupted synchronous run.
func TestJobDrainResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	store1, err := jobs.Open(dir, jobs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Jobs: store1, JobWorkers: 1})

	// posit32es2 software arithmetic + a tolerance CG cannot reach keeps
	// the job running long enough to catch it mid-flight.
	spec := map[string]any{
		"matrix_market": laplacianMM(120), "solver": "cg", "format": "posit32es2",
		"tol": 1e-300, "max_iter": 3000, "return_x": true,
	}
	v := decodeJob(t, post(t, ts1.URL+"/v1/jobs", mustJSON(t, map[string]any{
		"solve": spec, "checkpoint_every": 10,
	})), http.StatusAccepted)

	// Wait for at least one durable checkpoint, then drain mid-run.
	pollJob(t, ts1.URL, v.ID, func(v jobView) bool { return v.CheckpointIter >= 10 })
	if !s1.Jobs().Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	g, _ := store1.Get(v.ID)
	if g.State != jobs.StateQueued || g.Recoveries != 1 || g.CheckpointIter < 10 {
		t.Fatalf("drained job = state=%s recoveries=%d ckpt=%d, want queued with checkpoint", g.State, g.Recoveries, g.CheckpointIter)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := jobs.Open(dir, jobs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := store2.ReplayStats(); st.Resumed != 0 || st.Restarted != 0 {
		// A drained job was requeued gracefully, not crash-recovered.
		t.Fatalf("replay stats = %+v, want no crash recoveries", st)
	}
	_, ts2 := newTestServer(t, Config{Jobs: store2, JobWorkers: 1})
	done := pollJob(t, ts2.URL, v.ID, func(v jobView) bool { return v.State == "succeeded" })
	if done.Recoveries != 1 {
		t.Fatalf("resumed job = %+v, want 1 recovery", done)
	}

	sync := post(t, ts2.URL+"/v1/solve", mustJSON(t, spec))
	syncBody := readBody(t, sync)
	if sync.StatusCode != 200 {
		t.Fatalf("sync solve: %d %s", sync.StatusCode, syncBody)
	}
	if !reflect.DeepEqual(scrubTiming(t, done.Result), scrubTiming(t, []byte(syncBody))) {
		t.Fatal("resumed result diverges from uninterrupted run")
	}
}

// plantRunner stands in for an older positd: it journals one fixed
// checkpoint for the job it runs, then holds the job until a drain
// requeues it with that checkpoint.
type plantRunner struct {
	data    []byte
	iter    int
	planted chan struct{}
}

func (p plantRunner) Run(ctx context.Context, _ jobs.Job, sink jobs.Sink) ([]byte, error) {
	if err := sink.Checkpoint(p.iter, p.data); err != nil {
		return nil, err
	}
	close(p.planted)
	<-ctx.Done()
	return nil, ctx.Err()
}

// firstCGCheckpoint runs CG on spec's system in format f with the
// job's cadence and returns the first checkpoint it emits.
func firstCGCheckpoint(t *testing.T, spec map[string]any, f arith.Format) *solvers.CGCheckpoint {
	t.Helper()
	a, _, err := mmarket.Read(strings.NewReader(spec["matrix_market"].(string)))
	if err != nil {
		t.Fatal(err)
	}
	ones, b := make([]float64, a.N), make([]float64, a.N)
	for i := range ones {
		ones[i] = 1
	}
	a.MatVecF64(ones, b)
	var first *solvers.CGCheckpoint
	if _, err := solvers.CGCheckpointed(context.Background(), a.ToFormat(f, false), linalg.VecFromFloat64(f, b), 1e-300, 120,
		solvers.CGCheckpointOptions{Every: 10, OnCheckpoint: func(c *solvers.CGCheckpoint) error {
			if first == nil {
				first = c
			}
			return nil
		}}); err != nil || first == nil {
		t.Fatalf("reference CG: err=%v, checkpoint %v", err, first != nil)
	}
	return first
}

// requireRestartedJob journals wire as the checkpoint of a job of spec,
// reopens the store under a server, and requires the job to finish with
// the /v1/solve answer.
func requireRestartedJob(t *testing.T, spec map[string]any, wire solveCkptWire) {
	t.Helper()
	data, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store1, err := jobs.Open(dir, jobs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	planted := make(chan struct{})
	pool := jobs.NewPool(store1, plantRunner{data: data, iter: wire.Iter, planted: planted}, jobs.PoolConfig{Workers: 1})
	pool.Start()
	j, err := pool.Submit(jobKindSolve, []byte(mustJSON(t, spec)), jobs.SubmitOptions{CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	<-planted
	if !pool.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	if g, _ := store1.Get(j.ID); g.State != jobs.StateQueued || g.CheckpointIter != wire.Iter {
		t.Fatalf("planted job = state=%s ckpt=%d, want queued at %d", g.State, g.CheckpointIter, wire.Iter)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := jobs.Open(dir, jobs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Jobs: store2, JobWorkers: 1})
	done := pollJob(t, ts.URL, j.ID, func(v jobView) bool { return v.State == "succeeded" || v.State == "failed" })
	if done.State != "succeeded" {
		t.Fatalf("job = %+v, want succeeded", done)
	}
	sync := post(t, ts.URL+"/v1/solve", mustJSON(t, spec))
	syncBody := readBody(t, sync)
	if sync.StatusCode != 200 {
		t.Fatalf("sync solve: %d %s", sync.StatusCode, syncBody)
	}
	if !reflect.DeepEqual(scrubTiming(t, done.Result), scrubTiming(t, []byte(syncBody))) {
		t.Fatalf("job result diverges from /v1/solve:\njob  %s\nsync %s", done.Result, syncBody)
	}
}

// TestJobUnversionedCheckpointRestarts journals a posit8 CG job with a
// checkpoint as a positd from before checkpoint versioning wrote it: no
// version, and posit8 Nums as patterns (the integer pipeline's
// encoding, which posit8 used before it moved to the fast value-domain
// format).
// The job must run from iteration 0 rather than resume from misread
// state, and finish with the /v1/solve answer.
func TestJobUnversionedCheckpointRestarts(t *testing.T) {
	spec := map[string]any{
		"matrix_market": laplacianMM(40), "solver": "cg", "format": "posit8es2",
		"tol": 1e-300, "max_iter": 120, "return_x": true,
	}
	wire := cgWire(firstCGCheckpoint(t, spec, arith.Posit(posit.Posit8e2)))
	wire.Version = 0 // never written before versioning
	if data, err := json.Marshal(wire); err != nil || bytes.Contains(data, []byte(`"v"`)) {
		t.Fatalf("unversioned checkpoint carries a version: %s (%v)", data, err)
	}
	requireRestartedJob(t, spec, wire)
}

// TestJobCorruptCheckpointWordRestarts journals a Posit(16,1) CG job
// whose checkpoint has x[0] replaced by 1/3, a value no posit holds, as
// an altered journal digit would leave it. CG never corrects x, so a
// resume would return another x: the job must run from iteration 0 and
// finish with the /v1/solve answer.
func TestJobCorruptCheckpointWordRestarts(t *testing.T) {
	spec := map[string]any{
		"matrix_market": laplacianMM(40), "solver": "cg", "format": "posit16es1",
		"tol": 1e-300, "max_iter": 120, "return_x": true,
	}
	wire := cgWire(firstCGCheckpoint(t, spec, arith.MustByName("posit16es1")))
	wire.X[0] = math.Float64bits(1.0 / 3)
	requireRestartedJob(t, spec, wire)
}

func TestJobMetricsSection(t *testing.T) {
	reg, _, _ := testRegistry(t)
	_, ts := newTestServer(t, Config{Registry: reg})
	v := decodeJob(t, post(t, ts.URL+"/v1/jobs", `{"experiment":{"name":"demo"}}`), http.StatusAccepted)
	pollJob(t, ts.URL, v.ID, func(v jobView) bool { return v.State == "succeeded" })

	resp := get(t, ts.URL+"/debug/metrics")
	body := readBody(t, resp)
	var snap struct {
		Jobs *jobs.MetricsSnapshot `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	if snap.Jobs == nil || snap.Jobs.Submitted != 1 || snap.Jobs.Completed != 1 {
		t.Fatalf("jobs metrics = %+v, want 1 submitted + completed", snap.Jobs)
	}
}

func TestExperimentErrorCarriesCacheProvenance(t *testing.T) {
	reg, _, _ := testRegistry(t)
	_, ts := newTestServer(t, Config{Registry: reg})
	resp := get(t, ts.URL+"/v1/experiments/boom")
	body := readBody(t, resp)
	if resp.StatusCode != 500 {
		t.Fatalf("status = %d (%s), want 500", resp.StatusCode, body)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("X-Cache = %q on error response, want miss", xc)
	}
}
