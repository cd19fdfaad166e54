// Command positd serves the experiment and solver stack over HTTP:
// batch format conversion, on-demand solver runs on suite or uploaded
// matrices, and cached experiment results, with admission control,
// per-request timeouts, structured access logs, and expvar metrics.
//
// Usage:
//
//	positd [-addr :8787] [-max-inflight N] [-cache-entries N]
//	       [-request-timeout D] [-drain-timeout D]
//	       [-cache dir] [-jobs N] [-instrument]
//	       [-jobs-dir dir] [-job-workers N] [-checkpoint-every N]
//	       [-max-queued-jobs N]
//	       [-matrices a,b,c] [-cgcap N] [-irmax N] [-quiet]
//	       [-pprof] [-fault-plan plan]
//
// Endpoints:
//
//	GET  /healthz                 liveness
//	POST /v1/convert              batch format conversion with error stats
//	POST /v1/solve                one CG / Cholesky / IR run
//	POST /v1/diagnose             one shadow-diagnosed solver run:
//	                              per-op error telemetry, divergence
//	                              trace, decimal-digits envelope check
//	GET  /v1/experiments/{name}   a registered experiment's rendered rows
//	POST /v1/jobs                 submit an async solve/experiment job
//	GET  /v1/jobs                 list jobs (?state= ?kind= ?limit=)
//	GET  /v1/jobs/{id}            job status/result (?wait=30s long-polls)
//	DEL  /v1/jobs/{id}            cancel a job
//	GET  /debug/metrics           per-route latency, cache, op, job counters
//	GET  /debug/vars              expvar
//	GET  /debug/pprof/...         runtime profiles (only with -pprof)
//
// With -jobs-dir, jobs are journaled to disk: a SIGKILLed or restarted
// positd replays the journal on startup and resumes interrupted solver
// jobs from their last checkpoint, with results bit-identical to an
// uninterrupted run.
//
// With -fault-plan (testing only, requires -jobs-dir), the job journal
// runs behind a deterministic fault injector: the plan's seed-driven
// rules turn journal writes, fsyncs, and renames into short writes,
// I/O errors, or ENOSPC, exercising the degraded-durability paths end
// to end. The same plan string always injects the same faults.
//
// positd drains gracefully on SIGINT/SIGTERM: the listener closes, in-
// flight requests get -drain-timeout to finish, in-flight jobs are
// requeued with their checkpoints, and a clean drain exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"positlab/internal/experiments"
	"positlab/internal/faultfs"
	"positlab/internal/jobs"
	"positlab/internal/matgen"
	"positlab/internal/runner"
	"positlab/internal/service"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

func run(argv []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("positd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8787", "listen address")
	maxInflight := fs.Int("max-inflight", service.DefaultMaxInflight, "concurrent /v1 requests admitted before refusing with 429")
	cacheEntries := fs.Int("cache-entries", service.DefaultCacheEntries, "in-memory response LRU capacity")
	requestTimeout := fs.Duration("request-timeout", service.DefaultRequestTimeout, "per-request deadline; expiry cancels in-flight solver loops")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long in-flight requests may finish after SIGTERM")
	cacheDir := fs.String("cache", "", "on-disk experiment result cache directory (empty = no disk cache)")
	runnerJobs := fs.Int("jobs", 0, "concurrent runner jobs per experiment request (0 = GOMAXPROCS)")
	jobsDir := fs.String("jobs-dir", "", "durable job journal directory for /v1/jobs (empty = in-memory only; jobs do not survive restarts)")
	jobWorkers := fs.Int("job-workers", service.DefaultJobWorkers, "async job pool workers")
	checkpointEvery := fs.Int("checkpoint-every", service.DefaultJobCheckpointEvery, "default solver-iteration cadence for journaling job checkpoints")
	maxQueuedJobs := fs.Int("max-queued-jobs", service.DefaultMaxQueuedJobs, "queued-job backlog bound; submissions beyond it get 429")
	instrument := fs.Bool("instrument", true, "count experiment arithmetic into job reports")
	matrices := fs.String("matrices", "", "restrict the experiment suite to these matrices (comma-separated; default all 19)")
	cgcap := fs.Int("cgcap", 10, "CG iteration cap as a multiple of N for experiments")
	irmax := fs.Int("irmax", 1000, "iterative-refinement cap for experiments")
	quiet := fs.Bool("quiet", false, "suppress the JSON access log")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	faultPlan := fs.String("fault-plan", "", "inject deterministic filesystem faults into the job journal (testing only; faultfs plan syntax, e.g. \"seed=7;op=sync,mode=eio,after=10\")")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "positd: "+format+"\n", args...)
		return 2
	}
	if *maxInflight < 1 {
		return usage("-max-inflight must be >= 1, got %d", *maxInflight)
	}
	if *cacheEntries < 1 {
		return usage("-cache-entries must be >= 1, got %d", *cacheEntries)
	}
	if *requestTimeout <= 0 {
		return usage("-request-timeout must be > 0, got %v", *requestTimeout)
	}
	if *jobWorkers < 1 {
		return usage("-job-workers must be >= 1, got %d", *jobWorkers)
	}
	if *checkpointEvery < 1 {
		return usage("-checkpoint-every must be >= 1, got %d", *checkpointEvery)
	}
	if *maxQueuedJobs < 1 {
		return usage("-max-queued-jobs must be >= 1, got %d", *maxQueuedJobs)
	}
	if *cgcap < 1 {
		return usage("-cgcap must be >= 1, got %d", *cgcap)
	}
	if *irmax < 1 {
		return usage("-irmax must be >= 1, got %d", *irmax)
	}

	opt := experiments.Options{CGCapFactor: *cgcap, IRMaxIter: *irmax}
	if *matrices != "" {
		opt.Matrices = strings.Split(*matrices, ",")
		for _, name := range opt.Matrices {
			if _, err := matgen.TargetByName(name); err != nil {
				return usage("-matrices: %v", err)
			}
		}
	}

	cfg := service.Config{
		RunnerConfig: runner.Config{
			Jobs:       *runnerJobs,
			Options:    opt,
			KeyData:    opt.Canonical(),
			Instrument: *instrument,
		},
		MaxInflight:        *maxInflight,
		CacheEntries:       *cacheEntries,
		RequestTimeout:     *requestTimeout,
		JobWorkers:         *jobWorkers,
		JobCheckpointEvery: *checkpointEvery,
		MaxQueuedJobs:      *maxQueuedJobs,
		EnablePprof:        *pprofOn,
	}
	if !*quiet {
		cfg.AccessLog = stderr
	}
	if *cacheDir != "" {
		cache, err := runner.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(stderr, "positd: %v\n", err)
			return 1
		}
		cfg.RunnerConfig.Cache = cache
	}
	if *faultPlan != "" && *jobsDir == "" {
		return usage("-fault-plan requires -jobs-dir (the plan injects faults into the job journal)")
	}
	if *jobsDir != "" {
		jcfg := jobs.Config{}
		if *faultPlan != "" {
			plan, err := faultfs.ParsePlan(*faultPlan)
			if err != nil {
				return usage("-fault-plan: %v", err)
			}
			fmt.Fprintf(stderr, "positd: WARNING: fault injection active on the job journal (%s); durability guarantees are deliberately broken for testing\n", plan)
			jcfg.FS = faultfs.New(faultfs.OS, plan)
		}
		store, err := jobs.Open(*jobsDir, jcfg)
		if err != nil {
			fmt.Fprintf(stderr, "positd: %v\n", err)
			return 1
		}
		defer func() {
			if cerr := store.Close(); cerr != nil {
				fmt.Fprintf(stderr, "positd: close job store: %v\n", cerr)
			}
		}()
		st := store.ReplayStats()
		fmt.Fprintf(stderr, "positd: job journal %s: %d snapshot + %d records replayed in %.1f ms, %d resumed, %d restarted\n",
			*jobsDir, st.SnapshotJobs, st.Records, st.MS, st.Resumed, st.Restarted)
		cfg.Jobs = store
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "positd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "positd: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := service.New(cfg).Run(ctx, ln, *drainTimeout); err != nil {
		fmt.Fprintf(stderr, "positd: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, "positd: drained cleanly")
	return 0
}
