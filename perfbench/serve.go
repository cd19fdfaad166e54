package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"positlab/internal/experiments"
)

// The serve-mix request classes.
const (
	classSolve    = "solve"
	classDiagnose = "diagnose"
	classJob      = "job"
	classConvert  = "convert"
)

// serveMatrices are the suite systems the solves use: every Table I
// replica with N <= 494 except bcsstk06, whose Cholesky alone would
// cost more than the other systems together and would sit alone at
// the p99. serveUploads are sent inline as MatrixMarket text.
var (
	serveMatrices = []string{"bcsstk01", "bcsstk02", "bcsstk22", "lund_a", "lund_b", "nos1", "plat362", "mhd416b", "nos5", "494_bus"}
	serveUploads  = []string{"testdata/suite/bcsstk01.mtx", "testdata/suite/lund_b.mtx"}
)

// solveConfigs are the /v1/solve classes; /v1/diagnose takes the
// systems of the first (CG), where the shadow wrapper sees every
// iteration's kernels.
var solveConfigs = []map[string]any{
	{"solver": "cg", "format": "posit32es2", "rescale": true},
	{"solver": "cholesky", "format": "posit16es1", "rescale": true},
	{"solver": "ir", "format": "posit16es2", "higham": true},
}

// convertFormats are the /v1/convert targets; each has convertPool
// distinct 256-value batches, so the response cache sees both misses
// (a batch's first use) and hits.
var convertFormats = []string{"posit8es0", "posit16es1", "posit32es2"}

// tailSystem's diagnosis, about three times the cost of any other
// request, runs twice per round: the requests beyond the p99 then all
// come from it, so no boundary between request types falls at the p99.
const tailSystem = "plat362"

// medianSystems' diagnoses, which cost within 15% of each other in the
// middle of the class, run twice per round too: the diagnose median
// then falls among them rather than in a gap between systems of unlike
// cost.
var medianSystems = []string{"nos5", "upload:lund_b.mtx", "lund_a"}

// jobSystems are the systems of the jobs: a round's jobs are every
// solve class on each of them. Their single solves cost within a factor
// of three of each other, so the job median falls among jobs of like
// cost, not between systems whose solves differ a hundredfold, where a
// few jobs that swap places move it by half.
var jobSystems = []string{"lund_a", "lund_b", "nos1", "upload:lund_b.mtx"}

// jobBatches are the sizes of a round's job batches, which hold each
// job spec once. Round r deals the jobs out from place jobStride*r on
// and the batches alternate between interactive and bulk, so which
// jobs wait for which varies by round but not by seed: the seed picks
// only the batches' places in the round.
var jobBatches = []int{4, 3, 2, 2, 1}

const jobStride = 5 // prime to the 12 job specs: every round starts elsewhere

const (
	convertPool  = 32
	convertBatch = 256
	// A round holds each solve spec once, each diagnose spec once or
	// twice, each job spec once and convertsPerRound conversions; a run
	// makes at least minRequests requests, so ten samples lie beyond
	// the p99.
	convertsPerRound = 60
	minRequests      = 1000
	// nominalRate (requests/s) turns --seconds into a round count.
	nominalRate = 40
)

// spec is one distinct request body.
type spec struct {
	class  string
	body   []byte
	system string // the system's name, for the pairing checks
	solver string // for solve specs
	solve  int    // for diagnose specs: the paired solve spec
}

// mixOp is one step of the closed loop: a single request, or a batch
// of jobs submitted together and then long-polled one by one.
type mixOp struct {
	spec     int
	batch    []int // job batch: solve spec indices
	priority string
}

type mix struct {
	specs   []spec
	solves  []int // indices of the solve specs
	diags   []int
	twice   []int // the diagnose specs a round runs twice
	jobs    []int // the solve specs a round submits as jobs
	convert []int
}

// buildMix makes the distinct request specs; the convert batches are
// drawn from seed.
func buildMix(root string, seed int64) (*mix, error) {
	m := &mix{}
	add := func(s spec) int {
		m.specs = append(m.specs, s)
		return len(m.specs) - 1
	}
	type system struct{ name, key, value string }
	var systems []system
	for _, name := range serveMatrices {
		systems = append(systems, system{name, "matrix", name})
	}
	for _, path := range serveUploads {
		b, err := os.ReadFile(filepath.Join(root, path))
		if err != nil {
			return nil, err
		}
		systems = append(systems, system{"upload:" + filepath.Base(path), "matrix_market", string(b)})
	}
	for ci, cfg := range solveConfigs {
		for _, sys := range systems {
			req := map[string]any{sys.key: sys.value}
			for k, v := range cfg {
				req[k] = v
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			i := add(spec{class: classSolve, body: body, system: sys.name, solver: cfg["solver"].(string)})
			m.solves = append(m.solves, i)
			if slices.Contains(jobSystems, sys.name) {
				m.jobs = append(m.jobs, i)
			}
			if ci == 0 {
				d := add(spec{class: classDiagnose, body: body, system: sys.name, solve: i})
				m.diags = append(m.diags, d)
				if sys.name == tailSystem || slices.Contains(medianSystems, sys.name) {
					m.twice = append(m.twice, d)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, to := range convertFormats {
		for k := 0; k < convertPool; k++ {
			vals := make([]float64, convertBatch)
			for i := range vals {
				// Log-uniform magnitudes across the posits' dynamic range.
				vals[i] = math.Ldexp(1+rng.Float64(), rng.Intn(49)-24)
				if rng.Intn(2) == 0 {
					vals[i] = -vals[i]
				}
			}
			body, err := json.Marshal(map[string]any{"from": "float64", "to": to, "values": vals})
			if err != nil {
				return nil, err
			}
			m.convert = append(m.convert, add(spec{class: classConvert, body: body}))
		}
	}
	n := 0
	for _, b := range jobBatches {
		n += b
	}
	if n != len(m.jobs) {
		return nil, fmt.Errorf("the job batches hold %d jobs, but there are %d job specs", n, len(m.jobs))
	}
	return m, nil
}

// sequence is the measured operation sequence: rounds rounds, each
// holding every solve and diagnose spec once (the tail and median
// systems' diagnoses twice), each job spec once, dealt out to batches
// of jobBatches sizes, and convertsPerRound conversions drawn from the
// pool, in seeded order.
func (m *mix) sequence(seed int64, rounds int) []mixOp {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var seq []mixOp
	for r := 0; r < rounds; r++ {
		var round []mixOp
		for _, i := range m.solves {
			round = append(round, mixOp{spec: i})
		}
		for _, i := range slices.Concat(m.diags, m.twice) {
			round = append(round, mixOp{spec: i})
		}
		for k := 0; k < convertsPerRound; k++ {
			round = append(round, mixOp{spec: m.convert[rng.Intn(len(m.convert))]})
		}
		at := jobStride * r % len(m.jobs)
		jobs := slices.Concat(m.jobs[at:], m.jobs[:at])
		for k, n := range jobBatches {
			pri := "bulk"
			if (r+k)%2 == 0 {
				pri = "interactive"
			}
			round = append(round, mixOp{spec: -1, batch: jobs[:n], priority: pri})
			jobs = jobs[n:]
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		seq = append(seq, round...)
	}
	return seq
}

// requestsPerRound counts a round's requests (each job is one).
func (m *mix) requestsPerRound() int {
	return len(m.solves) + len(m.diags) + len(m.twice) + convertsPerRound + len(m.jobs)
}

// positd is one running server.
type positd struct {
	cmd     *exec.Cmd
	base    string
	jobsDir string
	stopped bool
}

// addrWriter forwards positd's stderr and picks the listen address out
// of its "listening on" line.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	os.Stderr.Write(p)
	if !w.sent {
		w.buf.Write(p)
		if _, rest, ok := strings.Cut(w.buf.String(), "positd: listening on "); ok {
			if line, _, ok := strings.Cut(rest, "\n"); ok {
				w.addr <- strings.TrimSpace(line)
				w.sent = true
			}
		}
	}
	return len(p), nil
}

// startPositd starts the built positd on a loopback port with a
// journaled job store in a fresh directory, and waits for /healthz.
func startPositd(ctx context.Context, e *env, hc *http.Client) (*positd, error) {
	tmp := filepath.Join(e.build, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "jobs-")
	if err != nil {
		return nil, err
	}
	w := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(filepath.Join(e.build, "bin", "positd"), "-addr", "127.0.0.1:0", "-jobs-dir", dir, "-quiet")
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start positd (build it with run.sh): %v", err)
	}
	p := &positd{cmd: cmd, jobsDir: dir}
	select {
	case addr := <-w.addr:
		p.base = "http://" + addr
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, errors.New("positd did not report its address within 30s")
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			p.stop()
			return nil, fmt.Errorf("positd /healthz not ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains positd with SIGTERM (killing it after 20s), waits for it,
// and returns its peak RSS in MiB.
func (p *positd) stop() float64 {
	if p.stopped {
		return 0
	}
	p.stopped = true
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// sample is one completed (or failed) request of the measured phase.
type sample struct {
	class  string
	spec   int
	ms     float64
	ok     bool
	status int
	// wallMS is a solve response's own wall_ms.
	wallMS float64
	// id is the request's place in the sequence, or the job's ID.
	id string
	// For jobs: the job record's timestamps and the time the client
	// saw the job finished.
	submitted, started, finished time.Time
	seen, sent                   time.Time
	retries                      int
	iterations                   int
}

// client drives positd and checks its answers.
type client struct {
	hc   *http.Client
	base string
	m    *mix
	refs map[int][]byte // canonical first answer per spec
	// solveRes keeps the iterations and residual of each solve spec's
	// reference answer, for the diagnose pairing check.
	solveRes map[int]solveSummary
	mu       sync.Mutex
	problems []string
}

type solveSummary struct {
	Iterations  int      `json:"iterations"`
	RelResidual *float64 `json:"rel_residual"`
	Final       *float64 `json:"final_residual"`
	WallMS      float64  `json:"wall_ms"`
}

func (c *client) problem(format string, args ...any) {
	c.mu.Lock()
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// canonical drops the fields that legitimately differ between repeats
// of one request (wall_ms and ops) and re-encodes with sorted keys.
func canonical(b []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	delete(m, "wall_ms")
	delete(m, "ops")
	return json.Marshal(m)
}

// checkRepeat requires the answer to a spec to equal, after canonical,
// the first answer to it.
func (c *client) checkRepeat(i int, body []byte, what string) {
	cb, err := canonical(body)
	if err != nil {
		c.problem("%s: %s answer is not JSON: %v", c.m.specs[i].system, what, err)
		return
	}
	c.mu.Lock()
	ref, ok := c.refs[i]
	if !ok {
		c.refs[i] = cb
	}
	c.mu.Unlock()
	if ok && !bytes.Equal(ref, cb) {
		s := c.m.specs[i]
		c.problem("%s %s: %s answer differs from the first answer to the same request", s.class, s.system, what)
	}
}

// single sends one solve, diagnose or convert request.
func (c *client) single(ctx context.Context, i int) sample {
	s := c.m.specs[i]
	t0 := time.Now()
	status, body, err := c.do(ctx, http.MethodPost, "/v1/"+s.class, s.body)
	sm := sample{class: s.class, spec: i, ms: ms(time.Since(t0)), status: status, sent: t0}
	if err != nil || status != http.StatusOK {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: status %d: %v %.200s\n", s.class, s.system, status, err, body)
		return sm
	}
	sm.ok = true
	c.checkRepeat(i, body, s.class)
	if s.class == classConvert {
		return sm
	}
	var sum solveSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		c.problem("%s %s: %v", s.class, s.system, err)
		return sm
	}
	sm.wallMS, sm.iterations = sum.WallMS, sum.Iterations
	if s.class == classSolve {
		c.mu.Lock()
		if _, ok := c.solveRes[i]; !ok {
			c.solveRes[i] = sum
		}
		c.mu.Unlock()
		return sm
	}
	c.mu.Lock()
	ref, ok := c.solveRes[s.solve]
	c.mu.Unlock()
	switch {
	case !ok:
		c.problem("diagnose %s: no solve answer to pair with", s.system)
	case sum.Iterations != ref.Iterations || sum.Final == nil || ref.RelResidual == nil || *sum.Final != *ref.RelResidual:
		c.problem("diagnose %s: %d iterations, final residual %v; the paired solve: %d, %v",
			s.system, sum.Iterations, deref(sum.Final), ref.Iterations, deref(ref.RelResidual))
	}
	return sm
}

func deref(p *float64) any {
	if p == nil {
		return nil
	}
	return *p
}

type jobView struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Retries     int             `json:"retries"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   time.Time       `json:"started_at"`
	FinishedAt  time.Time       `json:"finished_at"`
	Result      json.RawMessage `json:"result"`
}

// jobs submits a batch of solve jobs, then long-polls each until it
// ends; each job's result must equal the /v1/solve answer to its spec.
func (c *client) jobs(ctx context.Context, op mixOp) []sample {
	out := make([]sample, len(op.batch))
	for k, i := range op.batch {
		body, err := json.Marshal(map[string]any{"solve": json.RawMessage(c.m.specs[i].body), "priority": op.priority})
		if err != nil {
			panic(err) // a RawMessage of valid JSON always encodes
		}
		t0 := time.Now()
		status, resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
		out[k] = sample{class: classJob, spec: i, sent: t0, status: status}
		var v jobView
		if err == nil && status == http.StatusAccepted {
			err = json.Unmarshal(resp, &v)
		}
		if err != nil || status != http.StatusAccepted {
			fmt.Fprintf(os.Stderr, "perfbench: job submit %s: status %d: %v %.200s\n", c.m.specs[i].system, status, err, resp)
			out[k].ms = ms(time.Since(t0))
			continue
		}
		out[k].id = v.ID
	}
	for k := range out {
		sm := &out[k]
		if sm.id == "" {
			continue
		}
		for {
			status, resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+sm.id+"?wait=30s", nil)
			var v jobView
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(resp, &v)
			}
			if err != nil || status != http.StatusOK {
				fmt.Fprintf(os.Stderr, "perfbench: job poll %s: status %d: %v\n", sm.id, status, err)
				sm.status = status
				sm.ms = ms(time.Since(sm.sent))
				break
			}
			if v.State == "queued" || v.State == "running" {
				continue
			}
			sm.seen = time.Now()
			sm.ms = ms(sm.seen.Sub(sm.sent))
			sm.submitted, sm.started, sm.finished, sm.retries = v.SubmittedAt, v.StartedAt, v.FinishedAt, v.Retries
			if v.State != "succeeded" {
				fmt.Fprintf(os.Stderr, "perfbench: job %s ended %s\n", sm.id, v.State)
				break
			}
			sm.ok = true
			c.checkJob(sm.spec, v.Result)
			break
		}
	}
	return out
}

func (c *client) checkJob(i int, result []byte) {
	got, err := canonical(result)
	if err != nil {
		c.problem("job %s: result is not JSON: %v", c.m.specs[i].system, err)
		return
	}
	c.mu.Lock()
	want, ok := c.refs[i]
	c.mu.Unlock()
	if !ok || !bytes.Equal(got, want) {
		s := c.m.specs[i]
		c.problem("job %s %.80s: result differs from the /v1/solve answer to the same spec", s.system, s.body)
	}
}

// run executes ops over two connections in a closed loop: each of two
// workers takes the next op of the sequence as soon as its previous
// one is done.
func (c *client) run(ctx context.Context, ops []mixOp) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= len(ops) {
					return
				}
				var got []sample
				if ops[k].batch != nil {
					got = c.jobs(ctx, ops[k])
				} else {
					got = []sample{c.single(ctx, ops[k].spec)}
					got[0].id = fmt.Sprintf("r%d", k)
				}
				mu.Lock()
				out = append(out, got...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// setupOps is one pass over each distinct request spec: every solve,
// every diagnose, each format's first convert batch, and one job.
func (m *mix) setupOps() []mixOp {
	var ops []mixOp
	for _, i := range m.solves {
		ops = append(ops, mixOp{spec: i})
	}
	for k := range convertFormats {
		ops = append(ops, mixOp{spec: m.convert[k*convertPool]})
	}
	// Diagnoses pair with solves, so they come after every solve; the
	// job's result is checked against its solve's answer.
	var after []mixOp
	for _, i := range m.diags {
		after = append(after, mixOp{spec: i})
	}
	after = append(after, mixOp{spec: -1, batch: m.jobs[:1], priority: "interactive"})
	return append(ops, after...)
}

type debugMetrics struct {
	Routes map[string]struct {
		Count uint64  `json:"count"`
		P50MS float64 `json:"p50_ms"`
		P99MS float64 `json:"p99_ms"`
	} `json:"routes"`
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		Shared uint64 `json:"shared"`
	} `json:"cache"`
	OpsTotal uint64 `json:"ops_total"`
	Shadow   struct {
		ShadowedOps uint64 `json:"shadowed_ops"`
		MeasuredOps uint64 `json:"measured_ops"`
	} `json:"shadow"`
}

func (c *client) metrics(ctx context.Context) (debugMetrics, error) {
	var dm debugMetrics
	status, b, err := c.do(ctx, http.MethodGet, "/debug/metrics", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(b, &dm)
	}
	return dm, err
}

// serveSetup starts positd and makes one pass over each distinct spec
// (on two connections), which generates the suite systems and builds
// the tables; it returns the server, the client holding the reference
// answers, and the set-up time.
func serveSetup(e *env, m *mix, hc *http.Client) (*positd, *client, float64, error) {
	t0 := time.Now()
	p, err := startPositd(e.ctx, e, hc)
	if err != nil {
		return nil, nil, 0, err
	}
	c := &client{hc: hc, base: p.base, m: m, refs: map[int][]byte{}, solveRes: map[int]solveSummary{}}
	ops := m.setupOps()
	nd := len(m.diags) + 1
	var failed int
	for _, part := range [][]mixOp{ops[:len(ops)-nd], ops[len(ops)-nd:]} {
		for _, s := range c.run(e.ctx, part) {
			if !s.ok {
				failed++
			}
		}
	}
	d := time.Since(t0).Seconds()
	if failed > 0 || e.ctx.Err() != nil {
		p.stop()
		return nil, nil, 0, fmt.Errorf("set-up pass: %d requests failed (%v)", failed, e.ctx.Err())
	}
	return p, c, d, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   90 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}
}

// runServeMix runs the serve-mix workload.
func runServeMix(e *env) (*report, error) {
	r := newReport()
	m, err := buildMix(e.root, e.seed)
	if err != nil {
		return nil, err
	}
	rounds := max((minRequests+m.requestsPerRound()-1)/m.requestsPerRound(), e.seconds*nominalRate/m.requestsPerRound())
	ops := m.sequence(e.seed, rounds)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	root := e.tr.Begin(0, "workload", e.workload, fmt.Sprintf("seed=%d", e.seed))
	defer e.tr.Finish(root)
	setupSpan := e.tr.Begin(root, "setup", "setup", "")
	n := setupRuns
	if e.tr != nil {
		n = 1
	}
	var setups []float64
	var p *positd
	var c *client
	for k := 0; k < n; k++ {
		pk, ck, d, err := serveSetup(e, m, hc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if c != nil {
			// Every server must answer every spec the same way.
			for i := range m.specs {
				ref, ok := c.refs[i]
				if got, ok2 := ck.refs[i]; ok && ok2 && !bytes.Equal(ref, got) {
					r.problem("%s %s: answer differs between two positd processes", m.specs[i].class, m.specs[i].system)
				}
			}
		}
		if k < n-1 {
			pk.stop()
			os.RemoveAll(pk.jobsDir)
		}
		p, c = pk, ck
	}
	e.tr.Finish(setupSpan)
	defer func() {
		p.stop()
		os.RemoveAll(p.jobsDir)
	}()

	before, err := c.metrics(e.ctx)
	if err != nil {
		return nil, fmt.Errorf("/debug/metrics: %v", err)
	}
	mixSpan := e.tr.Begin(root, "client", "mix", "")
	t0 := time.Now()
	samples := c.run(e.ctx, ops)
	wall := time.Since(t0)
	e.tr.Finish(mixSpan)
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	after, err := c.metrics(e.ctx)
	if err != nil {
		return nil, fmt.Errorf("/debug/metrics: %v", err)
	}
	for _, pr := range c.problems {
		r.problem("%s", pr)
	}

	var all []float64
	byClass := map[string][]float64{}
	completed := 0
	for _, s := range samples {
		r.count(s.class, s.ok)
		lat := s.ms
		if s.ok {
			completed++
			byClass[s.class] = append(byClass[s.class], lat)
		} else {
			lat = math.Inf(1) // a failed or refused request misses any latency limit
		}
		all = append(all, lat)
	}
	if len(samples) != rounds*m.requestsPerRound() {
		r.problem("the mix made %d requests, want %d", len(samples), rounds*m.requestsPerRound())
	}

	if e.tr == nil {
		pct, p99 := tailPercentile(all)
		r.set("setup_s", median(setups), len(setups))
		r.set("wall_s", wall.Seconds(), 1)
		r.set("req_per_s", float64(completed)/wall.Seconds(), completed)
		r.setTail("latency_p99_ms", pct, p99, len(all))
		r.set("solve_p50_ms", median(byClass[classSolve]), len(byClass[classSolve]))
		r.set("job_p50_ms", median(byClass[classJob]), len(byClass[classJob]))
		r.set("diagnose_p50_ms", median(byClass[classDiagnose]), len(byClass[classDiagnose]))
		r.setOKRatio()
		r.set("peak_rss_mib", p.stop(), 1)
		return r, nil
	}

	traceServe(e, r, m, mixSpan, samples, before, after)
	r.set("trace.wall_s", wall.Seconds(), 1)
	p.stop()
	r.set("jobs.journal_bytes", float64(dirBytes(p.jobsDir)), 1)

	// The layers below the service, timed in this process on the same
	// systems positd generated.
	gen := e.tr.Begin(root, "matgen", "matgen.generate", "")
	t1 := time.Now()
	experiments.Suite(serveMatrices)
	r.set("matgen.generate_s", time.Since(t1).Seconds(), 1)
	e.tr.Finish(gen)
	tab := e.tr.Begin(root, "arith", "arith.tables", "")
	tablesMS, tableBytes := buildTables([]string{"posit16es1", "posit16es2", "posit8es0"})
	r.set("arith.table_build_ms", tablesMS, 1)
	r.set("arith.table_bytes", float64(tableBytes), 1)
	e.tr.Finish(tab)
	lad := e.tr.Begin(root, "ladder", "ladder", "")
	err = runLadder(e.ctx, e.tr, lad, r)
	e.tr.Finish(lad)
	return r, err
}

// traceServe turns the measured phase into spans and per-layer
// metrics: one span per request (a job's queue wait and run become
// child spans, taken from its record), the server's own per-route
// latencies, and the deltas of its counters over the phase.
func traceServe(e *env, r *report, m *mix, parent int, samples []sample, before, after debugMetrics) {
	layer := map[string]string{classSolve: "service", classConvert: "service", classDiagnose: "shadow", classJob: "jobs"}
	var overhead, convert, queue, run, lag, solveCG, diag []float64
	var cgIters, irIters, retries, refused float64
	for _, s := range samples {
		if s.status == http.StatusTooManyRequests {
			refused++
		}
		id := e.tr.Add(parent, layer[s.class], s.class, s.id, s.sent, s.sent.Add(time.Duration(s.ms*float64(time.Millisecond))))
		if !s.ok {
			continue
		}
		switch s.class {
		case classSolve:
			overhead = append(overhead, s.ms-s.wallMS)
			switch m.specs[s.spec].solver {
			case "cg":
				cgIters += float64(s.iterations)
				solveCG = append(solveCG, s.ms)
			case "ir":
				irIters += float64(s.iterations)
			}
		case classDiagnose:
			diag = append(diag, s.ms)
		case classConvert:
			convert = append(convert, s.ms)
		case classJob:
			e.tr.Add(id, "jobs", "job.queue", s.id, s.submitted, s.started)
			e.tr.Add(id, "jobs", "job.run", s.id, s.started, s.finished)
			queue = append(queue, ms(s.started.Sub(s.submitted)))
			run = append(run, ms(s.finished.Sub(s.started)))
			lag = append(lag, ms(s.seen.Sub(s.finished)))
			retries += float64(s.retries)
		}
	}
	for _, rt := range []struct{ route, name string }{
		{"POST /v1/solve", "solve"}, {"POST /v1/diagnose", "diagnose"}, {"POST /v1/convert", "convert"},
		{"POST /v1/jobs", "jobs_submit"}, {"GET /v1/jobs/{id}", "jobs_poll"},
	} {
		rs, name := after.Routes[rt.route], rt.name
		r.set("service."+name+".p50_ms", rs.P50MS, int(rs.Count))
		r.set("service."+name+".p99_ms", rs.P99MS, int(rs.Count))
	}
	r.set("service.solve_overhead_ms", median(overhead), len(overhead))
	r.set("service.convert_p50_ms", median(convert), len(convert))
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	lookups := hits + float64(after.Cache.Misses-before.Cache.Misses+after.Cache.Shared-before.Cache.Shared)
	r.set("service.cache_hit_ratio", hits/max(lookups, 1), int(lookups))
	r.set("service.refused", refused, len(samples))
	r.set("jobs.queue_wait_p50_ms", median(queue), len(queue))
	pct, v := tailPercentile(queue)
	r.setTail("jobs.queue_wait_tail_ms", pct, v, len(queue))
	r.set("jobs.run_p50_ms", median(run), len(run))
	r.set("jobs.poll_lag_ms", median(lag), len(lag))
	r.set("jobs.retries", retries, len(queue))
	r.set("shadow.overhead_ratio", median(diag)/median(solveCG), len(diag))
	shadowed := float64(after.Shadow.ShadowedOps - before.Shadow.ShadowedOps)
	r.set("shadow.measured_share", float64(after.Shadow.MeasuredOps-before.Shadow.MeasuredOps)/max(shadowed, 1), 1)
	r.set("arith.ops_total", float64(after.OpsTotal-before.OpsTotal), 1)
	r.set("solvers.cg_iterations", cgIters, 1)
	r.set("solvers.ir_iterations", irIters, 1)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
