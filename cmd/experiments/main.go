// Command experiments regenerates the paper's tables and figures on
// the synthetic Table I replica suite, scheduling them through the
// internal/runner subsystem: independent experiments fan out across a
// worker pool, results are cached on disk, and progress is reported
// live.
//
// Usage:
//
//	experiments [-matrices a,b,c] [-cgcap N] [-irmax N]
//	            [-jobs N] [-timeout D] [-cache dir] [-runs file]
//	            [-instrument] [-svg dir] [-csv dir]
//	            [-shadow] [-shadow-sample N] [-pprof addr] [ids...]
//
// where ids are any of: table1 fig3 fig5 fig6 fig7 fig8 fig9 table2
// table3 fig10 ext-fft ext-shock ext-bicg ext-gmres all (default all).
//
// With -shadow, the shadow-precision diagnosis experiment (diagnose)
// joins the run — and "all" — re-running Higham-scaled IR under the
// shadow wrapper with per-op error telemetry; -shadow-sample sets its
// sampling stride (1 = measure every operation). The experiment can
// also be requested by id without the flag.
//
// With -pprof, net/http/pprof is served on the given address for the
// duration of the run (like positd's -pprof, but on its own listener
// since this command has no HTTP server otherwise).
//
// Exit status is 0 on success, 1 when any job or output write failed
// (completed experiments are still printed), and 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"positlab/internal/experiments"
	"positlab/internal/faultfs"
	"positlab/internal/matgen"
	"positlab/internal/runner"
)

// displayOrder is the canonical output order — the order the serial
// driver ran in — so parallel runs print byte-identical reports.
var displayOrder = []string{
	"table1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
	"table2", "table3", "fig10",
	"ext-fft", "ext-shock", "ext-bicg", "ext-gmres",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	matrices := fs.String("matrices", "", "comma-separated matrix subset (default: all 19)")
	cgcap := fs.Int("cgcap", 10, "CG iteration cap as a multiple of N")
	irmax := fs.Int("irmax", 1000, "iterative-refinement iteration cap")
	svgDir := fs.String("svg", "", "also write each figure as SVG into this directory")
	csvDir := fs.String("csv", "", "also write each experiment's rows as CSV into this directory")
	jobs := fs.Int("jobs", 0, "concurrent experiment jobs (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
	cacheDir := fs.String("cache", "", "on-disk result cache directory (empty = no cache)")
	runsPath := fs.String("runs", "", "write a machine-readable runs.json report to this file")
	instrument := fs.Bool("instrument", false, "count per-job arithmetic operations into the run report")
	shadowOn := fs.Bool("shadow", false, "include the shadow-precision diagnosis experiment (diagnose) in the run and in \"all\"")
	shadowSample := fs.Int("shadow-sample", 0, "shadow diagnosis sampling stride: measure every Nth operation (1 = all, 0 = the default stride)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address for the duration of the run (empty = off)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", args...)
		return 2
	}
	if *jobs < 0 {
		return usage("-jobs must be >= 0, got %d", *jobs)
	}
	if *cgcap < 1 {
		return usage("-cgcap must be >= 1, got %d", *cgcap)
	}
	if *irmax < 1 {
		return usage("-irmax must be >= 1, got %d", *irmax)
	}
	if *timeout < 0 {
		return usage("-timeout must be >= 0, got %v", *timeout)
	}
	if *shadowSample < 0 {
		return usage("-shadow-sample must be >= 0, got %d", *shadowSample)
	}
	if *pprofAddr != "" {
		// Own mux, not DefaultServeMux: only the pprof routes exist, and
		// only while this process runs.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return usage("-pprof: %v", err)
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "experiments: pprof on http://%s/debug/pprof/\n", ln.Addr())
		go func() {
			srv := &http.Server{Handler: pm, ReadHeaderTimeout: 10 * time.Second}
			_ = srv.Serve(ln) // advisory endpoint; errors just end profiling
		}()
	}

	opt := experiments.Options{CGCapFactor: *cgcap, IRMaxIter: *irmax, ShadowSample: *shadowSample}
	if *matrices != "" {
		opt.Matrices = strings.Split(*matrices, ",")
		for _, name := range opt.Matrices {
			if _, err := matgen.TargetByName(name); err != nil {
				return usage("-matrices: %v", err)
			}
		}
	}

	// The shadow diagnosis experiment is opt-in (it re-runs the IR
	// grid): -shadow appends it to the canonical order, and with it to
	// "all". Requesting the id explicitly works without the flag.
	order := displayOrder
	if *shadowOn {
		order = append(append([]string(nil), displayOrder...), "diagnose")
	}

	ids := fs.Args()
	if len(ids) == 0 {
		ids = []string{"all"}
	}
	want := map[string]bool{}
	for _, id := range ids {
		if id == "all" {
			for _, k := range order {
				want[k] = true
			}
			continue
		}
		if _, ok := runner.Default.Lookup(id); !ok {
			return usage("unknown experiment %q (known: %s, all)", id, strings.Join(order, " "))
		}
		want[id] = true
	}
	if want["diagnose"] && !*shadowOn {
		order = append(append([]string(nil), displayOrder...), "diagnose")
	}
	var selected []string
	for _, id := range order {
		if want[id] {
			selected = append(selected, id)
		}
	}

	cfg := runner.Config{
		Jobs:       *jobs,
		Timeout:    *timeout,
		Options:    opt,
		KeyData:    opt.Canonical(),
		Instrument: *instrument,
	}
	if *cacheDir != "" {
		cache, err := runner.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
		cfg.Cache = cache
	}
	cfg.Events = runner.Progress(stderr, scheduledCount(selected))

	// SIGTERM joins SIGINT so container/orchestrator shutdowns also
	// cancel in-flight solver loops promptly instead of killing the
	// process mid-write; the ctx threads through the runner into each
	// solver's per-iteration checkpoints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, rep, runErr := runner.Default.Run(ctx, selected, cfg)
	if runErr != nil && rep == nil {
		// Run-level failure before any job started (unknown dep,
		// cycle): nothing to print.
		fmt.Fprintf(stderr, "experiments: %v\n", runErr)
		return 1
	}

	failed := runErr != nil
	reports := map[string]runner.JobReport{}
	for _, jr := range rep.Jobs {
		reports[jr.ID] = jr
	}

	writeFile := func(dir, name, content string) {
		if err := faultfs.OS.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			failed = true
			return
		}
		path := filepath.Join(dir, name)
		// Atomic replace, like every other durable artifact: an
		// interrupted run leaves the previous CSV/SVG intact, never a
		// torn file that plots garbage.
		if err := faultfs.WriteFileAtomic(faultfs.OS, path, []byte(content)); err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			failed = true
			return
		}
		fmt.Fprintf(stdout, "  (wrote %s)\n", path)
	}

	for _, id := range selected {
		jr := reports[id]
		if jr.Err != "" {
			fmt.Fprintf(stderr, "experiments: %s: %s\n", id, jr.Err)
			failed = true
			continue
		}
		res := results[id]
		if res == nil {
			fmt.Fprintf(stderr, "experiments: %s: no result\n", id)
			failed = true
			continue
		}
		for _, a := range res.Artifacts {
			switch {
			case a.Kind == runner.CSV && *csvDir != "":
				writeFile(*csvDir, a.Name, a.Content)
			case a.Kind == runner.SVG && *svgDir != "":
				writeFile(*svgDir, a.Name, a.Content)
			}
		}
		elapsed := "cached"
		if !jr.Cached {
			elapsed = fmt.Sprint(time.Duration(jr.WallMS * float64(time.Millisecond)).Round(time.Millisecond))
		}
		fmt.Fprintf(stdout, "== %s: %s ==\n%s(%s)\n\n", id, jr.Title, res.Body, elapsed)
	}

	if *runsPath != "" {
		if err := rep.WriteFile(*runsPath); err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			failed = true
		}
	}
	fmt.Fprintln(stderr, rep.Summary())
	if runErr != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", runErr)
	}
	if failed {
		return 1
	}
	return 0
}

// scheduledCount sizes the progress display: the selected experiments
// plus any dependencies the scheduler will pull in.
func scheduledCount(selected []string) int {
	seen := map[string]bool{}
	var add func(id string)
	add = func(id string) {
		if seen[id] {
			return
		}
		seen[id] = true
		if s, ok := runner.Default.Lookup(id); ok {
			for _, d := range s.Deps {
				add(d)
			}
		}
	}
	for _, id := range selected {
		add(id)
	}
	return len(seen)
}
