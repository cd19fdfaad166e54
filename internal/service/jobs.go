package service

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"positlab/internal/arith"
	"positlab/internal/core"
	"positlab/internal/jobs"
	"positlab/internal/solvers"
)

// This file is the HTTP surface of the durable job subsystem
// (internal/jobs) plus the executor that runs its jobs: a solve job is
// the async form of POST /v1/solve with solver checkpoints journaled
// at the configured cadence, and an experiment job is the async form
// of GET /v1/experiments/{name}. Submissions are validated before they
// are journaled, so a job that was accepted can only fail for runtime
// reasons, never for a malformed spec.

// jobSubmitRequest is the POST /v1/jobs body. Exactly one of Solve and
// Experiment must be set.
type jobSubmitRequest struct {
	Solve      *solveRequest      `json:"solve,omitempty"`
	Experiment *experimentJobSpec `json:"experiment,omitempty"`
	// Priority is "interactive" or "bulk" (default "bulk").
	// Interactive jobs are dequeued ahead of bulk ones.
	Priority string `json:"priority,omitempty"`
	// CheckpointEvery overrides the server's checkpoint cadence in
	// solver iterations for this job (0: server default; < 0: never).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// MaxRetries bounds transparent re-runs after transient failures.
	MaxRetries int `json:"max_retries,omitempty"`
	// MaxRuntimeMS caps one attempt's wall time (0: unlimited).
	MaxRuntimeMS int64 `json:"max_runtime_ms,omitempty"`
}

// experimentJobSpec names a registered experiment to run.
type experimentJobSpec struct {
	Name      string `json:"name"`
	Artifacts bool   `json:"artifacts,omitempty"`
}

// jobView is the API rendering of a jobs.Job.
type jobView struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"`
	State      string `json:"state"`
	Priority   string `json:"priority"`
	Attempt    int    `json:"attempt,omitempty"`
	Retries    int    `json:"retries,omitempty"`
	Recoveries int    `json:"recoveries,omitempty"`
	// CheckpointIter is the iteration of the last durable checkpoint;
	// a recovered job resumes from here.
	CheckpointIter int    `json:"checkpoint_iter,omitempty"`
	SubmittedAt    string `json:"submitted_at"`
	StartedAt      string `json:"started_at,omitempty"`
	FinishedAt     string `json:"finished_at,omitempty"`
	Error          string `json:"error,omitempty"`
	// Progress is the live solver state of a running job: iterations
	// completed, current residual/backward error, and the tail of the
	// convergence history.
	Progress *jobProgress `json:"progress,omitempty"`
	// Result is the completed job's payload: a solveResponse for solve
	// jobs, an experimentResponse for experiment jobs.
	Result json.RawMessage `json:"result,omitempty"`
}

type jobProgress struct {
	Iterations int         `json:"iterations"`
	Residual   jsonFloat   `json:"residual"`
	Tail       []jsonFloat `json:"tail,omitempty"`
}

func ns3339(ns int64) string {
	if ns == 0 {
		return ""
	}
	return time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
}

func viewOf(j jobs.Job) jobView {
	v := jobView{
		ID:             j.ID,
		Kind:           j.Kind,
		State:          string(j.State),
		Priority:       string(j.Priority),
		Attempt:        j.Attempt,
		Retries:        j.Retries,
		Recoveries:     j.Recoveries,
		CheckpointIter: j.CheckpointIter,
		SubmittedAt:    ns3339(j.SubmittedNS),
		StartedAt:      ns3339(j.StartedNS),
		FinishedAt:     ns3339(j.FinishedNS),
		Error:          j.Error,
		Result:         j.Result,
	}
	if j.State == jobs.StateRunning && j.Progress.Iterations > 0 {
		v.Progress = &jobProgress{
			Iterations: j.Progress.Iterations,
			Residual:   jsonFloat(j.Progress.Residual),
			Tail:       jsonFloats(j.Progress.Tail),
		}
	}
	return v
}

// handleJobSubmit implements POST /v1/jobs: validate the spec, journal
// the job, and return 202 with its initial view. The solver runs on
// the worker pool; poll GET /v1/jobs/{id} (or long-poll with ?wait=)
// for completion.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobSubmitRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if (req.Solve == nil) == (req.Experiment == nil) {
		httpError(w, http.StatusBadRequest, "set exactly one of solve or experiment")
		return
	}
	pri, err := jobs.ParsePriority(req.Priority)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.MaxRetries < 0 || req.MaxRuntimeMS < 0 {
		httpError(w, http.StatusBadRequest, "max_retries and max_runtime_ms must be non-negative")
		return
	}
	qi, qb := s.jobPool.Store().QueueDepths()
	if qi+qb >= s.cfg.MaxQueuedJobs {
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("job queue is full (%d queued); retry later", qi+qb))
		return
	}

	every := req.CheckpointEvery
	switch {
	case every == 0:
		every = s.cfg.JobCheckpointEvery
	case every < 0:
		every = 0
	}

	var kind string
	var spec []byte
	switch {
	case req.Solve != nil:
		// Validate up front: a journaled job must be runnable.
		if _, serr := validateSolve(req.Solve); serr != nil {
			httpError(w, serr.status, serr.msg)
			return
		}
		if _, _, _, err := s.loadSystem(req.Solve); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		kind = jobKindSolve
		if spec, err = json.Marshal(req.Solve); err != nil {
			httpError(w, http.StatusInternalServerError, "encode spec: "+err.Error())
			return
		}
	default:
		if _, ok := s.cfg.Registry.Lookup(req.Experiment.Name); !ok {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown experiment %q", req.Experiment.Name))
			return
		}
		kind = jobKindExperiment
		if spec, err = json.Marshal(req.Experiment); err != nil {
			httpError(w, http.StatusInternalServerError, "encode spec: "+err.Error())
			return
		}
	}

	j, err := s.jobPool.Submit(kind, spec, jobs.SubmitOptions{
		Priority:        pri,
		MaxRetries:      req.MaxRetries,
		CheckpointEvery: every,
		MaxRuntime:      time.Duration(req.MaxRuntimeMS) * time.Millisecond,
	})
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "submit: "+err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, viewOf(j))
}

// handleJobGet implements GET /v1/jobs/{id}. With ?wait=<duration> it
// long-polls: the response is delayed until the job settles or the
// wait (capped by the request timeout) expires, whichever is first,
// and carries the job's state either way.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	store := s.jobPool.Store()
	if waitSpec := r.URL.Query().Get("wait"); waitSpec != "" {
		d, err := time.ParseDuration(waitSpec)
		if err != nil {
			httpError(w, http.StatusBadRequest, "wait: "+err.Error())
			return
		}
		ctx := r.Context()
		if d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		j, err := store.Wait(ctx, id)
		if err == jobs.ErrUnknownJob {
			httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
			return
		}
		// A wait that timed out still reports the live state.
		writeJSON(w, http.StatusOK, viewOf(j))
		return
	}
	j, ok := store.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, viewOf(j))
}

// handleJobList implements GET /v1/jobs with ?state=, ?kind=,
// ?priority= and ?limit= filters, newest first.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := jobs.Filter{
		State: jobs.State(q.Get("state")),
		Kind:  q.Get("kind"),
	}
	if p := q.Get("priority"); p != "" {
		pri, err := jobs.ParsePriority(p)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		f.Priority = pri
	}
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		f.Limit = n
	}
	list := s.jobPool.Store().List(f)
	views := make([]jobView, len(list))
	for i, j := range list {
		views[i] = viewOf(j)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views, "count": len(views)})
}

// handleJobCancel implements DELETE /v1/jobs/{id}: a queued job is
// settled immediately, a running one is interrupted (its context is
// canceled) and settles shortly after.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch err := s.jobPool.Cancel(id); err {
	case nil:
		j, _ := s.jobPool.Store().Get(id)
		writeJSON(w, http.StatusOK, viewOf(j))
	case jobs.ErrUnknownJob:
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
	case jobs.ErrFinished:
		httpError(w, http.StatusConflict, fmt.Sprintf("job %q already finished", id))
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// --- executor ---

const (
	jobKindSolve      = "solve"
	jobKindExperiment = "experiment"
)

// jobExecutor runs journaled jobs against the server's solver and
// experiment stack. It is the pool's Runner.
type jobExecutor struct {
	s *Server
}

func (e *jobExecutor) Run(ctx context.Context, job jobs.Job, sink jobs.Sink) ([]byte, error) {
	switch job.Kind {
	case jobKindSolve:
		return e.runSolveJob(ctx, job, sink)
	case jobKindExperiment:
		return e.runExperimentJob(ctx, job)
	default:
		return nil, jobs.Permanent(fmt.Errorf("unknown job kind %q", job.Kind))
	}
}

// runSolveJob executes a solve-kind job: decode the spec, restore the
// solver checkpoint if this attempt is a resume, and run with
// checkpoint emission wired to the job journal.
func (e *jobExecutor) runSolveJob(ctx context.Context, job jobs.Job, sink jobs.Sink) ([]byte, error) {
	var req solveRequest
	if err := json.Unmarshal(job.Spec, &req); err != nil {
		return nil, jobs.Permanent(fmt.Errorf("decode solve spec: %w", err))
	}
	var h core.Hooks
	if job.CheckpointEvery > 0 {
		h.CG.Every = job.CheckpointEvery
		h.CG.OnCheckpoint = func(c *solvers.CGCheckpoint) error {
			sink.Progress(progressOf(c.Iter, c.History))
			wire := cgWire(c)
			data, err := json.Marshal(wire)
			if err != nil {
				return fmt.Errorf("encode checkpoint: %w", err)
			}
			return sink.Checkpoint(c.Iter, data)
		}
		h.IR.Every = job.CheckpointEvery
		h.IR.OnCheckpoint = func(c *solvers.IRCheckpoint) error {
			sink.Progress(progressOf(c.Iter, c.History))
			data, err := json.Marshal(irWire(c))
			if err != nil {
				return fmt.Errorf("encode checkpoint: %w", err)
			}
			return sink.Checkpoint(c.Iter, data)
		}
	}
	if len(job.Checkpoint) > 0 {
		var wire solveCkptWire
		if err := json.Unmarshal(job.Checkpoint, &wire); err != nil {
			return nil, jobs.Permanent(fmt.Errorf("decode checkpoint: %w", err))
		}
		switch {
		case wire.Version != solveCkptVersion:
			// Another encoding would resume from misread state; the
			// job runs from iteration 0 instead.
		case wire.Solver == "cg":
			// So would a word the job's format cannot hold, such as an
			// altered journal digit leaves.
			if f, err := arith.ByName(req.Format); err == nil && wire.cgHeldBy(f) {
				h.CG.Resume = wire.cgCheckpoint()
			}
		case wire.Solver == "ir":
			h.IR.Resume = wire.irCheckpoint()
		default:
			return nil, jobs.Permanent(fmt.Errorf("checkpoint for unknown solver %q", wire.Solver))
		}
	}

	resp, serr := e.s.runSolve(ctx, &req, h)
	if serr != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// Cancellation/drain/deadline: hand the raw context error to
			// the pool so its outcome policy applies.
			return nil, ctxErr
		}
		if serr.status >= 400 && serr.status < 500 {
			// A spec problem that slipped past submission validation
			// (e.g. a matrix removed from the suite): retrying cannot
			// help.
			return nil, jobs.Permanent(serr)
		}
		return nil, serr
	}
	return json.Marshal(resp)
}

// runExperimentJob executes an experiment-kind job through the runner
// (and therefore its on-disk cache), mirroring GET /v1/experiments.
func (e *jobExecutor) runExperimentJob(ctx context.Context, job jobs.Job) ([]byte, error) {
	var spec experimentJobSpec
	if err := json.Unmarshal(job.Spec, &spec); err != nil {
		return nil, jobs.Permanent(fmt.Errorf("decode experiment spec: %w", err))
	}
	reg := e.s.cfg.Registry
	rspec, ok := reg.Lookup(spec.Name)
	if !ok {
		return nil, jobs.Permanent(fmt.Errorf("unknown experiment %q", spec.Name))
	}
	res, _, err := e.s.exec.Execute(ctx, spec.Name)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	resp := experimentResponse{ID: spec.Name, Title: rspec.Title, Body: res.Body}
	if len(res.Metrics) > 0 {
		resp.Metrics = make(map[string]jsonFloat, len(res.Metrics))
		for k, v := range res.Metrics {
			resp.Metrics[k] = jsonFloat(v)
		}
	}
	if spec.Artifacts {
		resp.Artifacts = res.Artifacts
	}
	return json.Marshal(resp)
}

func progressOf(iter int, history []float64) jobs.Progress {
	p := jobs.Progress{Iterations: iter}
	if n := len(history); n > 0 {
		p.Residual = history[n-1]
		tail := history
		if n > 8 {
			tail = history[n-8:]
		}
		p.Tail = append([]float64(nil), tail...)
	}
	return p
}

// --- checkpoint wire format ---

// u64vec is a []uint64 that marshals as base64 of its little-endian
// bytes. Solver state is exact bit patterns (format numbers, float64
// bits); base64 keeps the journal compact and avoids any JSON number
// round-trip concerns for values like NaN payloads.
type u64vec []uint64

func (v u64vec) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], x)
	}
	return json.Marshal(base64.StdEncoding.EncodeToString(buf))
}

func (v *u64vec) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return err
	}
	if len(buf)%8 != 0 {
		return fmt.Errorf("u64vec: %d bytes is not a multiple of 8", len(buf))
	}
	out := make(u64vec, len(buf)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	*v = out
	return nil
}

// solveCkptVersion names the encoding of solveCkptWire's format Nums:
// in version 1 every fast format's Num is its value as float64 bits. A
// checkpoint without a version predates it and may hold posit8 Nums as
// patterns, so it is never resumed from. Bump the version whenever a
// format's Num encoding changes.
const solveCkptVersion = 1

// solveCkptWire is the journaled form of a solver checkpoint. CG uses
// X/R/P/RR (format Nums, encoded as Version says); IR uses only X
// (float64 bits). Hist is the reporting history as float64 bits in both
// cases.
type solveCkptWire struct {
	Version int    `json:"v,omitempty"`
	Solver  string `json:"solver"`
	Iter    int    `json:"iter"`
	X       u64vec `json:"x"`
	R       u64vec `json:"r,omitempty"`
	P       u64vec `json:"p,omitempty"`
	RR      uint64 `json:"rr,omitempty"`
	Hist    u64vec `json:"hist,omitempty"`
}

func numsToU64(v []arith.Num) u64vec {
	out := make(u64vec, len(v))
	for i, x := range v {
		out[i] = uint64(x)
	}
	return out
}

func u64ToNums(v u64vec) []arith.Num {
	out := make([]arith.Num, len(v))
	for i, x := range v {
		out[i] = arith.Num(x)
	}
	return out
}

func floatsToU64(v []float64) u64vec {
	out := make(u64vec, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

func u64ToFloats(v u64vec) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Float64frombits(x)
	}
	return out
}

func cgWire(c *solvers.CGCheckpoint) solveCkptWire {
	return solveCkptWire{
		Version: solveCkptVersion,
		Solver:  "cg",
		Iter:    c.Iter,
		X:       numsToU64(c.X),
		R:       numsToU64(c.R),
		P:       numsToU64(c.P),
		RR:      uint64(c.RR),
		Hist:    floatsToU64(c.History),
	}
}

func irWire(c *solvers.IRCheckpoint) solveCkptWire {
	return solveCkptWire{
		Version: solveCkptVersion,
		Solver:  "ir",
		Iter:    c.Iter,
		X:       floatsToU64(c.X),
		Hist:    floatsToU64(c.History),
	}
}

// cgHeldBy reports whether every CG word of w (x, r, p and rr) is a
// value of format f: FromFloat64(ToFloat64(word)) returns the word.
func (w *solveCkptWire) cgHeldBy(f arith.Format) bool {
	held := func(u uint64) bool { return f.FromFloat64(f.ToFloat64(arith.Num(u))) == arith.Num(u) }
	for _, v := range []u64vec{w.X, w.R, w.P, {w.RR}} {
		for _, u := range v {
			if !held(u) {
				return false
			}
		}
	}
	return true
}

func (w *solveCkptWire) cgCheckpoint() *solvers.CGCheckpoint {
	return &solvers.CGCheckpoint{
		Iter:    w.Iter,
		X:       u64ToNums(w.X),
		R:       u64ToNums(w.R),
		P:       u64ToNums(w.P),
		RR:      arith.Num(w.RR),
		History: u64ToFloats(w.Hist),
	}
}

func (w *solveCkptWire) irCheckpoint() *solvers.IRCheckpoint {
	return &solvers.IRCheckpoint{
		Iter:    w.Iter,
		X:       u64ToFloats(w.X),
		History: u64ToFloats(w.Hist),
	}
}
