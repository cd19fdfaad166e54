// Command benchcheck re-asserts the repository's recorded performance
// contracts. The checked-in BENCH_*.json files at the repo root are
// promises made on a reference machine; benchcheck re-measures the
// machine-independent shape of three of them and fails CI when a
// change breaks the promise by more than a generous tolerance:
//
//   - BENCH_shadow.json: shadow-wrapper overhead on the contract
//     workload (cholesky n=200, whose zero-multiplier rows the solver
//     skips) and on a dense matrix with none (cholesky dense n=200) —
//     sampled and full measurement modes must stay within slack x the
//     recorded overhead bounds on both.
//   - BENCH_jobs.json: ephemeral submit-to-complete throughput must
//     reach floor-frac x the recorded jobs/s.
//   - BENCH_lint.json: warm fact-cache RunRepo must beat cold by at
//     least lint-speedup x.
//
// The tolerances are deliberately loose (default 2x on overheads, an
// 8x headroom on throughput, 5x on a recorded ~760x speedup): this
// gate catches regressions that change the *mechanism* — a broken
// sampling stride, an accidental fsync on the ephemeral path, a fact
// cache that stopped hitting — not scheduler noise.
//
// Usage:
//
//	benchcheck [-C dir] [-only shadow,jobs,lint] [-slack f]
//	           [-floor-frac f] [-lint-speedup f] [-jobs-n n]
//
// Exit status is 0 when every re-asserted contract holds, 1 when any
// check fails (the diff table marks the failing rows), and 2 on usage,
// parse, or measurement errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

type config struct {
	root        string
	only        map[string]bool
	slack       float64
	floorFrac   float64
	lintSpeedup float64
	jobsN       int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, liveMeasurers()))
}

func run(args []string, stdout, stderr io.Writer, m measurers) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("C", ".", "repo root holding the BENCH_*.json contracts")
	only := fs.String("only", "shadow,jobs,lint", "comma-separated subset of checks to run")
	slack := fs.Float64("slack", 2.0, "multiplier on the recorded shadow overhead bounds")
	floorFrac := fs.Float64("floor-frac", 0.125, "fraction of recorded jobs/s the throughput must reach")
	lintSpeedup := fs.Float64("lint-speedup", 5.0, "minimum warm/cold lint speedup")
	jobsN := fs.Int("jobs-n", 20000, "submit-to-complete cycles for the throughput measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		root:        *root,
		only:        map[string]bool{},
		slack:       *slack,
		floorFrac:   *floorFrac,
		lintSpeedup: *lintSpeedup,
		jobsN:       *jobsN,
	}
	for _, name := range strings.Split(*only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		switch name {
		case "shadow", "jobs", "lint":
			cfg.only[name] = true
		default:
			fmt.Fprintf(stderr, "benchcheck: unknown check %q (want shadow, jobs, lint)\n", name)
			return 2
		}
	}
	rows, err := collectRows(cfg, m)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	allOK, err := renderTable(stdout, rows)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	if !allOK {
		fmt.Fprintln(stderr, "benchcheck: recorded performance contract violated (see FAIL rows)")
		return 1
	}
	return 0
}

// collectRows parses each selected contract file and re-measures its
// promise, returning the assembled diff-table rows.
func collectRows(cfg config, m measurers) ([]row, error) {
	var rows []row
	if cfg.only["shadow"] {
		data, err := os.ReadFile(filepath.Join(cfg.root, "BENCH_shadow.json"))
		if err != nil {
			return nil, err
		}
		c, err := parseShadowContract(data)
		if err != nil {
			return nil, err
		}
		for _, w := range []string{c.Workload, denseWorkload} {
			off, sampled, full, err := m.shadow(w)
			if err != nil {
				return nil, fmt.Errorf("shadow measurement (%s): %w", w, err)
			}
			if off <= 0 {
				return nil, fmt.Errorf("shadow measurement (%s): non-positive baseline %v", w, off)
			}
			rows = append(rows, evalShadow(c, w, off, sampled, full, cfg.slack)...)
		}
	}
	if cfg.only["jobs"] {
		data, err := os.ReadFile(filepath.Join(cfg.root, "BENCH_jobs.json"))
		if err != nil {
			return nil, err
		}
		c, err := parseJobsContract(data)
		if err != nil {
			return nil, err
		}
		jobsPerS, err := m.jobs(cfg.jobsN)
		if err != nil {
			return nil, fmt.Errorf("jobs measurement: %w", err)
		}
		rows = append(rows, evalJobs(c, jobsPerS, cfg.floorFrac))
	}
	if cfg.only["lint"] {
		data, err := os.ReadFile(filepath.Join(cfg.root, "BENCH_lint.json"))
		if err != nil {
			return nil, err
		}
		c, err := parseLintContract(data)
		if err != nil {
			return nil, err
		}
		coldS, warmS, err := m.lint(cfg.root)
		if err != nil {
			return nil, fmt.Errorf("lint measurement: %w", err)
		}
		if warmS <= 0 {
			return nil, fmt.Errorf("lint measurement: non-positive warm time %v", warmS)
		}
		rows = append(rows, evalLint(c, coldS, warmS, cfg.lintSpeedup))
	}
	return rows, nil
}
