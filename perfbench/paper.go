package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"positlab/internal/arith"
	"positlab/internal/core"
	"positlab/internal/experiments"
	"positlab/internal/linalg"
	"positlab/internal/runner"
	"positlab/internal/shadow"
)

// paperMatrices is the matrix subset both paper workloads run on. It
// spans N = 362..726 and keeps every outcome the paper's tables
// report, each of which costs differently from a clean solve: factor
// breakdown ('-': plat362, msc00726), the refinement cap ('1000+':
// 685_bus and 494_bus in Table II, plat362 in Table III), the
// Posit(32,2) CG arithmetic failure on msc00726, and fast convergence
// (mhd416b, nos5).
var paperMatrices = []string{"plat362", "mhd416b", "685_bus", "494_bus", "nos5", "msc00726"}

// ladderMatrix is the representative matrix of the solver rungs:
// every format converges on it.
const ladderMatrix = "685_bus"

// setupRuns is how many times a run sets up; setup_s is the median.
// A run makes one runner pass, each in its own process, per
// passSeconds of --seconds: the two workers' jobs contend for one
// cache, so a single pass's job times vary more than the pass does.
const (
	setupRuns   = 3
	passSeconds = 10
)

type paperSpec struct {
	ids []string // the experiments of the runner pass
	// tables are the <=16-bit formats whose lookup tables the pass
	// builds lazily; set-up builds them, as every experiments run pays.
	tables []string
	// probe is the single-solve configuration timed on probeMatrix for
	// solve_p50_ms and diagnose_p50_ms: the workload's solver in its
	// headline posit format. One configuration keeps the medians off the
	// boundaries between formats of different cost, and small systems
	// (the dense IR factor of nos1 fits in a core's cache) give many
	// samples per run. probeReps rounds are timed before the first pass
	// and after each pass.
	probe       core.Config
	probeMatrix string
	probeReps   int
}

var paperSpecs = map[string]paperSpec{
	"paper-16bit": {
		ids:         []string{"table2", "table3", "fig10", "ext-shock", "ext-fft"},
		tables:      []string{"float16", "bfloat16", "posit16es1", "posit16es2", "fp8e5m2", "fp8e4m3", "posit8es0", "posit8es1"},
		probe:       core.Config{Format: "posit16es1", Method: core.MethodMixedIR, Rescale: core.RescaleHigham},
		probeMatrix: "nos1",
		probeReps:   30,
	},
	"paper-32bit": {
		ids:         []string{"fig6", "fig7", "fig8", "fig9"},
		probe:       core.Config{Format: "posit32es2", Method: core.MethodCG, Rescale: core.RescaleInfNormPow2},
		probeMatrix: "nos5",
		probeReps:   16,
	},
}

// setupStats is what one in-process set-up measured.
type setupStats struct {
	GenerateS  float64 `json:"generate_s"`
	TablesMS   float64 `json:"tables_ms"`
	TableBytes int     `json:"table_bytes"`
}

// paperSetup does what an experiments run pays before its first
// solve: generate the subset's matrices (experiments.Suite, cached for
// the rest of the process) and build the lookup tables of the
// workload's <=16-bit formats.
func paperSetup(spec paperSpec) setupStats {
	var st setupStats
	t0 := time.Now()
	experiments.Suite(paperMatrices)
	st.GenerateS = time.Since(t0).Seconds()

	st.TablesMS, st.TableBytes = buildTables(spec.tables)
	return st
}

// buildTables builds the lookup tables of the named formats, as their
// first use does, and returns the time it took and the tables' size.
func buildTables(names []string) (float64, int) {
	t0 := time.Now()
	n := 0
	for _, name := range names {
		f := arith.MustByName(name)
		if tb, ok := arith.TablesOf(f); ok {
			n += tb.MemBytes()
		} else {
			// The 8-bit posits tabulate on their first operation.
			f.Add(f.One(), f.One())
		}
	}
	return ms(time.Since(t0)), n
}

// childReport is what a child process prints: its set-up, then, if
// it ran the pass, the pass.
type childReport struct {
	Setup *setupStats       `json:"setup,omitempty"`
	WallS float64           `json:"wall_s,omitempty"`
	CPUS  float64           `json:"cpu_s,omitempty"`
	Run   *runner.RunReport `json:"run,omitempty"`
	// Jobs are the job timings by the child's monotonic clock: the
	// report's time stamps cross the process boundary as wall-clock
	// times, which a clock step would distort.
	Jobs     []jobTiming `json:"jobs,omitempty"`
	Problems []string    `json:"problems,omitempty"`
}

// jobTiming places one job relative to the start of the pass.
type jobTiming struct {
	ID      string  `json:"id"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// runChild is the body of a child process: a fresh process, like an
// experiments run, that sets up and reports ready (one JSON line),
// then, with pass, runs and checks the runner pass and reports it (a
// second line). Each pass needs its own process: the experiments
// package memoizes Table III's rows for the life of a process.
func runChild(ctx context.Context, root, workload string, pass, instrument bool, stdout io.Writer) error {
	spec, ok := paperSpecs[workload]
	if !ok {
		return fmt.Errorf("no child for workload %q", workload)
	}
	linalg.SetWorkers(1) // the experiments CLI default, -par 1
	st := paperSetup(spec)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(childReport{Setup: &st}); err != nil || !pass {
		return err
	}
	cpu0 := cpuSeconds()
	results, rep, wall, err := paperPass(ctx, spec, runtime.GOMAXPROCS(0), instrument)
	if err != nil {
		return err
	}
	cr := childReport{WallS: wall.Seconds(), CPUS: cpuSeconds() - cpu0, Run: rep}
	for _, jr := range rep.Jobs {
		cr.Jobs = append(cr.Jobs, jobTiming{jr.ID, ms(jr.Start.Sub(rep.Started)), ms(jr.End.Sub(rep.Started))})
	}
	r := newReport()
	checkPass(root, spec, results, rep, r)
	cr.Problems = r.problems
	return enc.Encode(cr)
}

// childRun is what the parent saw of one child.
type childRun struct {
	readyS float64 // from process start until it reported ready
	setup  setupStats
	pass   *childReport
	rssMiB float64
}

// runPaperChild starts a child process (with GOMAXPROCS set when
// gomaxprocs > 0), times it to ready, and collects its reports.
func runPaperChild(e *env, pass, instrument bool, gomaxprocs int) (*childRun, error) {
	args := []string{"--child", e.workload}
	if pass {
		args = append(args, "--child-pass")
	}
	if instrument {
		args = append(args, "--child-instrument")
	}
	cmd := exec.CommandContext(e.ctx, e.self, args...)
	cmd.Stderr = os.Stderr
	if gomaxprocs > 0 {
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	cr := &childRun{}
	dec := json.NewDecoder(out)
	var ready, done childReport
	err = dec.Decode(&ready)
	cr.readyS = time.Since(t0).Seconds()
	if err == nil && pass {
		err = dec.Decode(&done)
		cr.pass = &done
	}
	io.Copy(io.Discard, out)
	if werr := cmd.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return nil, fmt.Errorf("child process: %v", err)
	}
	if ready.Setup == nil || (pass && done.Run == nil) {
		return nil, errors.New("child process: incomplete report")
	}
	cr.setup = *ready.Setup
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cr, nil
}

// paperPass runs the workload's experiments through runner.Registry.Run,
// the path cmd/experiments takes, at the given worker count, with the
// CLI's defaults (-cgcap 10 -irmax 1000) restricted to the subset.
func paperPass(ctx context.Context, spec paperSpec, jobs int, instrument bool) (map[string]*runner.Result, *runner.RunReport, time.Duration, error) {
	opt := experiments.Options{Matrices: paperMatrices, CGCapFactor: 10, IRMaxIter: 1000}
	cfg := runner.Config{Jobs: jobs, Options: opt, KeyData: opt.Canonical(), Instrument: instrument}
	t0 := time.Now()
	results, rep, err := runner.Default.Run(ctx, spec.ids, cfg)
	wall := time.Since(t0)
	if rep == nil {
		return nil, nil, 0, fmt.Errorf("runner: %v", err)
	}
	return results, rep, wall, nil
}

// checkPass compares the pass's outputs with the checked-in results:
// every CSV row byte for byte with the row for the same matrix in
// results/<name>.csv, and every extension table with its section of
// full_results.txt. Failed jobs are counted by the parent, not checked.
func checkPass(root string, spec paperSpec, results map[string]*runner.Result, rep *runner.RunReport, r *report) {
	for _, jr := range rep.Jobs {
		if jr.Err != "" {
			continue
		}
		res := results[jr.ID]
		if res == nil {
			r.problem("%s: no result", jr.ID)
			continue
		}
		csv := false
		for _, a := range res.Artifacts {
			if a.Kind == runner.CSV {
				csv = true
				r.problemIf(checkCSV(root, a.Name, a.Content))
			}
		}
		if _, err := os.Stat(filepath.Join(root, "results", jr.ID+".csv")); err == nil && !csv {
			r.problem("%s: no CSV, but results/%s.csv exists", jr.ID, jr.ID)
		}
		if strings.HasPrefix(jr.ID, "ext-") {
			r.problemIf(checkSection(root, jr.ID, res.Body))
		}
	}
	if len(rep.Jobs) != len(spec.ids) {
		r.problem("runner reported %d jobs, want %d", len(rep.Jobs), len(spec.ids))
	}
}

// checkCSV requires the header and each row of got to equal, byte for
// byte, the header and the row for the same matrix in results/<name>.
func checkCSV(root, name, got string) error {
	b, err := os.ReadFile(filepath.Join(root, "results", name))
	if err != nil {
		return fmt.Errorf("%s: reference: %v", name, err)
	}
	want := csvRows(string(b))
	rows := csvRows(got)
	if rows[""] != want[""] {
		return fmt.Errorf("%s: header differs from results/%s", name, name)
	}
	if len(rows) != len(paperMatrices)+1 {
		return fmt.Errorf("%s: %d rows, want one per matrix of the subset (%d)", name, len(rows)-1, len(paperMatrices))
	}
	for _, m := range paperMatrices {
		row, ok := rows[m]
		if !ok {
			return fmt.Errorf("%s: no row for %s", name, m)
		}
		if row != want[m] {
			return fmt.Errorf("%s: row for %s differs from results/%s:\n got: %s\nwant: %s", name, m, name, row, want[m])
		}
	}
	return nil
}

// csvRows keys each line of a CSV by its first field; the header line
// is keyed "".
func csvRows(s string) map[string]string {
	out := map[string]string{}
	for i, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		key := ""
		if i > 0 {
			key, _, _ = strings.Cut(line, ",")
		}
		out[key] = line
	}
	return out
}

// checkSection requires body to equal the experiment's section of
// full_results.txt: the lines between its "== id: ... ==" header and
// the "(elapsed)" line that ends it.
func checkSection(root, id, body string) error {
	b, err := os.ReadFile(filepath.Join(root, "full_results.txt"))
	if err != nil {
		return fmt.Errorf("%s: reference: %v", id, err)
	}
	want, ok := section(string(b), id)
	if !ok {
		return fmt.Errorf("%s: no section in full_results.txt", id)
	}
	if body != want {
		return fmt.Errorf("%s: table differs from full_results.txt:\n got:\n%s\nwant:\n%s", id, body, want)
	}
	return nil
}

func section(text, id string) (string, bool) {
	sc := bufio.NewScanner(strings.NewReader(text))
	var b strings.Builder
	in := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case !in && strings.HasPrefix(line, "== "+id+": "):
			in = true
		case in && strings.HasPrefix(line, "(") && strings.HasSuffix(line, ")"):
			return b.String(), true
		case in:
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return "", false
}

// prober times single solves and single shadow diagnoses of the probe
// matrix through the library entry points (core.Solve,
// shadow.Diagnose). Each diagnosis must report the iteration count of
// its paired solve.
type prober struct {
	spec    paperSpec
	r       *report
	a       *linalg.Sparse
	b       []float64
	opt     shadow.Options
	solveMS []float64
	diagMS  []float64
}

// newProber generates the probe matrix and makes one untimed round,
// which warms the heap and the caches up.
func newProber(ctx context.Context, spec paperSpec, r *report) *prober {
	m := experiments.Suite([]string{spec.probeMatrix})[0]
	pr := &prober{spec: spec, r: r, a: m.A, b: m.B}
	pr.opt = shadow.Options{Format: arith.MustByName(spec.probe.Format)}
	if spec.probe.Method == core.MethodCG {
		pr.opt.Solver, pr.opt.Rescale = "cg", true
	} else {
		pr.opt.Solver, pr.opt.Higham = "ir", true
	}
	pr.round(ctx, false)
	return pr
}

// batch makes the spec's probeReps timed rounds.
func (pr *prober) batch(ctx context.Context) {
	for k := 0; k < pr.spec.probeReps && ctx.Err() == nil; k++ {
		pr.round(ctx, true)
	}
}

// round makes one solve and one diagnosis, and with timed keeps their
// times.
func (pr *prober) round(ctx context.Context, timed bool) {
	spec, r := pr.spec, pr.r
	t0 := time.Now()
	sol, err := core.Solve(core.Problem{A: pr.a, B: pr.b}, spec.probe)
	d := time.Since(t0)
	r.count("solve", err == nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: probe solve: %v\n", err)
		return
	}
	if timed {
		pr.solveMS = append(pr.solveMS, ms(d))
	}

	t0 = time.Now()
	dr, err := shadow.Diagnose(ctx, pr.a, pr.b, spec.probeMatrix, pr.opt)
	d = time.Since(t0)
	r.count("diagnose", err == nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: probe diagnose: %v\n", err)
		return
	}
	if timed {
		pr.diagMS = append(pr.diagMS, ms(d))
	}
	if dr.Iterations != sol.Iterations {
		r.problem("diagnose %s %s: %d iterations, the paired solve took %d", spec.probeMatrix, spec.probe.Format, dr.Iterations, sol.Iterations)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runPaper runs a paper workload: one child process per passSeconds
// of --seconds (at least one) that sets up and runs the pass, like an
// experiments run; more children that only set up, until there are
// setupRuns set-ups; and the single-solve probes in this process, in
// a batch before the first pass and one after each pass, so that their
// medians span the run as the passes do and meet the same spells of
// load on a shared host. With tracing on it runs the instrumented pass,
// the same pass at GOMAXPROCS=1, and the layer ladder instead.
func runPaper(e *env) (*report, error) {
	spec := paperSpecs[e.workload]
	linalg.SetWorkers(1)
	r := newReport()
	if e.tr != nil {
		return r, tracePaper(e, spec, r)
	}

	pr := newProber(e.ctx, spec, r)
	pr.batch(e.ctx)
	var setups, walls, rss, jobLat []float64
	jobs := 0
	for i := 0; i < max(1, e.seconds/passSeconds); i++ {
		c, err := runPaperChild(e, true, false, 0)
		if err != nil {
			return nil, err
		}
		pr.batch(e.ctx)
		mergeChild(r, c.pass)
		setups = append(setups, c.readyS)
		walls = append(walls, c.pass.WallS)
		rss = append(rss, c.rssMiB)
		for _, jt := range c.pass.Jobs {
			jobLat = append(jobLat, jt.EndMS)
		}
		jobs += len(c.pass.Jobs)
	}
	for len(setups) < setupRuns {
		c, err := runPaperChild(e, false, false, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.readyS)
	}
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}

	pct, p := tailPercentile(jobLat)
	r.set("setup_s", median(setups), len(setups))
	r.set("wall_s", median(walls), len(walls))
	r.set("req_per_s", float64(jobs)/sum(walls), jobs)
	r.setTail("latency_p99_ms", pct, p, len(jobLat))
	r.set("job_p50_ms", median(jobLat), len(jobLat))
	r.set("solve_p50_ms", median(pr.solveMS), len(pr.solveMS))
	r.set("diagnose_p50_ms", median(pr.diagMS), len(pr.diagMS))
	r.set("peak_rss_mib", median(rss), len(rss))
	r.setOKRatio()
	return r, nil
}

// mergeChild takes a child's job outcomes and failed checks.
func mergeChild(r *report, cr *childReport) {
	for _, jr := range cr.Run.Jobs {
		r.count(jr.ID, jr.Err == "")
		if jr.Err != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %s\n", jr.ID, jr.Err)
		}
	}
	for _, p := range cr.Problems {
		r.problem("%s", p)
	}
}

// tracePaper is the traced run of a paper workload: its spans and
// per-layer metrics come from the child processes' reports and from
// the ladder, which runs in this process.
func tracePaper(e *env, spec paperSpec, r *report) error {
	root := e.tr.Begin(0, "workload", e.workload, "")
	defer e.tr.Finish(root)

	t0 := time.Now()
	work, err := runPaperChild(e, true, true, 0)
	if err != nil {
		return err
	}
	cr := work.pass
	mergeChild(r, cr)
	// The child reports only durations; its set-up spans are placed at
	// the end of the interval from its start to its ready line.
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	ready := t0.Add(sec(work.readyS))
	tables := ready.Add(-sec(work.setup.TablesMS / 1000))
	setup := e.tr.Add(root, "setup", "setup", "", t0, ready)
	e.tr.Add(setup, "matgen", "matgen.generate", "", tables.Add(-sec(work.setup.GenerateS)), tables)
	e.tr.Add(setup, "arith", "arith.tables", "", tables, ready)
	r.set("matgen.generate_s", work.setup.GenerateS, 1)
	r.set("arith.table_build_ms", work.setup.TablesMS, 1)
	r.set("arith.table_bytes", float64(work.setup.TableBytes), 1)

	rep := cr.Run
	jobSpans := passSpans(e.tr, root, "runner.pass", cr)
	var ops, cgIters, irIters float64
	for _, jr := range rep.Jobs {
		r.set("runner."+jr.ID+".wall_s", jr.WallMS/1000, 1)
		if jr.Ops != nil {
			ops += float64(jr.Ops.Total())
		}
		cgIters += jr.Metrics["cg_iterations"]
		irIters += jr.Metrics["ir_iterations"]
	}
	r.set("trace.wall_s", cr.WallS, 1)
	r.set("runner.busy_share", busyShare(jobSpans, rep.Workers, sec(cr.WallS)), len(jobSpans))
	r.set("runner.critical_path_s", criticalPath(rep), len(rep.Jobs))
	r.set("runner.cpu_s", cr.CPUS, 1)
	r.set("arith.ops_total", ops, 1)
	r.set("solvers.cg_iterations", cgIters, 1)
	r.set("solvers.ir_iterations", irIters, 1)

	// The single-threaded baseline: the same instrumented pass in a
	// process with GOMAXPROCS=1, and so one runner worker.
	one, err := runPaperChild(e, true, true, 1)
	if err != nil {
		return err
	}
	passSpans(e.tr, root, "runner.pass_1proc", one.pass)
	for _, p := range one.pass.Problems {
		r.problem("GOMAXPROCS=1 pass: %s", p)
	}
	r.set("runner.wall_1proc_s", one.pass.WallS, 1)
	r.set("runner.speedup", one.pass.WallS/cr.WallS, 1)

	lad := e.tr.Begin(root, "ladder", "ladder", "")
	err = runLadder(e.ctx, e.tr, lad, r)
	e.tr.Finish(lad)
	return err
}

// passSpans records a child's pass and its jobs as spans, placed from
// the pass's wall-clock start by the child's monotonic offsets, and
// returns the job spans.
func passSpans(tr *Tracer, parent int, name string, cr *childReport) []Span {
	t0 := cr.Run.Started
	at := func(msOff float64) time.Time { return t0.Add(time.Duration(msOff * float64(time.Millisecond))) }
	pass := tr.Add(parent, "runner", name, "", t0, at(cr.WallS*1000))
	var jobs []Span
	for _, jt := range cr.Jobs {
		s := Span{Start: at(jt.StartMS), End: at(jt.EndMS)}
		s.ID = tr.Add(pass, "experiments", "experiment."+jt.ID, jt.ID, s.Start, s.End)
		jobs = append(jobs, s)
	}
	return jobs
}

// criticalPath is the longest chain of declared dependencies, weighted
// by job wall time.
func criticalPath(rep *runner.RunReport) float64 {
	wall := map[string]float64{}
	for _, jr := range rep.Jobs {
		wall[jr.ID] = jr.WallMS / 1000
	}
	memo := map[string]float64{}
	var path func(id string) float64
	path = func(id string) float64 {
		if v, ok := memo[id]; ok {
			return v
		}
		longest := 0.0
		if s, ok := runner.Default.Lookup(id); ok {
			for _, d := range s.Deps {
				if _, ran := wall[d]; ran {
					longest = max(longest, path(d))
				}
			}
		}
		memo[id] = longest + wall[id]
		return memo[id]
	}
	best := 0.0
	for _, jr := range rep.Jobs {
		best = max(best, path(jr.ID))
	}
	return best
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
