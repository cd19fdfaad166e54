package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const shadowJSON = `{
  "contract": {"sampled_max_overhead": 2, "full_max_overhead": 10, "workload": "cholesky n=200"},
  "runs": []
}`

const jobsJSON = `{
  "throughput": [
    {"name": "submit-complete ephemeral", "jobs_per_s": 120516.92},
    {"name": "submit-complete journaled", "jobs_per_s": 1604.31}
  ]
}`

const lintJSON = `{
  "benchmarks": [
    {"name": "BenchmarkRepoCold", "seconds_per_op": 5.32},
    {"name": "BenchmarkRepoWarm", "seconds_per_op": 0.007}
  ]
}`

func TestParseShadowContract(t *testing.T) {
	c, err := parseShadowContract([]byte(shadowJSON))
	if err != nil {
		t.Fatal(err)
	}
	if c.SampledMax != 2 || c.FullMax != 10 || c.Workload != "cholesky n=200" {
		t.Fatalf("got %+v", c)
	}
	if _, err := parseShadowContract([]byte(`{}`)); err == nil {
		t.Fatal("missing contract block accepted")
	}
	if _, err := parseShadowContract([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestParseJobsContract(t *testing.T) {
	c, err := parseJobsContract([]byte(jobsJSON))
	if err != nil {
		t.Fatal(err)
	}
	if c.EphemeralJobsPerS != 120516.92 {
		t.Fatalf("got %+v", c)
	}
	if _, err := parseJobsContract([]byte(`{"throughput":[{"name":"other","jobs_per_s":5}]}`)); err == nil {
		t.Fatal("missing ephemeral row accepted")
	}
}

func TestParseLintContract(t *testing.T) {
	c, err := parseLintContract([]byte(lintJSON))
	if err != nil {
		t.Fatal(err)
	}
	if c.ColdS != 5.32 || c.WarmS != 0.007 {
		t.Fatalf("got %+v", c)
	}
	if _, err := parseLintContract([]byte(`{"benchmarks":[]}`)); err == nil {
		t.Fatal("missing rows accepted")
	}
}

// TestParseCheckedInContracts: the real BENCH files at the repo root
// must satisfy the parsers — otherwise the CI gate dies with exit 2
// instead of ever checking anything.
func TestParseCheckedInContracts(t *testing.T) {
	root := filepath.Join("..", "..")
	shadow, err := os.ReadFile(filepath.Join(root, "BENCH_shadow.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseShadowContract(shadow); err != nil {
		t.Errorf("checked-in BENCH_shadow.json: %v", err)
	}
	jobs, err := os.ReadFile(filepath.Join(root, "BENCH_jobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseJobsContract(jobs); err != nil {
		t.Errorf("checked-in BENCH_jobs.json: %v", err)
	}
	lint, err := os.ReadFile(filepath.Join(root, "BENCH_lint.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseLintContract(lint); err != nil {
		t.Errorf("checked-in BENCH_lint.json: %v", err)
	}
}

func TestEvalShadow(t *testing.T) {
	c := shadowContract{SampledMax: 2, FullMax: 10, Workload: "cholesky n=200"}
	rows := evalShadow(c, c.Workload, 8000, 10000, 72000, 2.0)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// 10000/8000 = 1.25x against bound 4x; 72000/8000 = 9x against 20x.
	if !rows[0].ok() || !rows[1].ok() {
		t.Fatalf("in-contract measurements failed: %+v", rows)
	}
	bad := evalShadow(c, denseWorkload, 8000, 40000, 200000, 2.0) // 5x and 25x
	if bad[0].ok() || bad[1].ok() {
		t.Fatalf("out-of-contract measurements passed: %+v", bad)
	}
}

func TestEvalJobs(t *testing.T) {
	c := jobsContract{EphemeralJobsPerS: 120000}
	if r := evalJobs(c, 40000, 0.125); !r.ok() { // floor 15000
		t.Fatalf("40k jobs/s against 15k floor failed: %+v", r)
	}
	if r := evalJobs(c, 9000, 0.125); r.ok() {
		t.Fatalf("9k jobs/s against 15k floor passed: %+v", r)
	}
}

func TestEvalLint(t *testing.T) {
	c := lintContract{ColdS: 5.32, WarmS: 0.007}
	if r := evalLint(c, 6.0, 0.05, 5.0); !r.ok() { // 120x speedup
		t.Fatalf("120x speedup against 5x floor failed: %+v", r)
	}
	if r := evalLint(c, 6.0, 3.0, 5.0); r.ok() { // 2x speedup
		t.Fatalf("2x speedup against 5x floor passed: %+v", r)
	}
}

func TestRenderTable(t *testing.T) {
	var buf bytes.Buffer
	ok, err := renderTable(&buf, []row{
		{Check: "a", Recorded: 2, Bound: 4, Measured: 1.5, Unit: "x", Dir: '<'},
		{Check: "b", Recorded: 100, Bound: 50, Measured: 20, Unit: "/s", Dir: '>'},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("table with a failing row reported allOK")
	}
	out := buf.String()
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "FAIL") {
		t.Fatalf("table missing statuses:\n%s", out)
	}
	if !strings.Contains(out, "CHECK") || !strings.Contains(out, "MEASURED") {
		t.Fatalf("table missing header:\n%s", out)
	}
}

// stub measurers: run() end-to-end with synthetic measurements against
// temp-dir contract files, checking exit codes and the diff table.
func writeContracts(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range map[string]string{
		"BENCH_shadow.json": shadowJSON,
		"BENCH_jobs.json":   jobsJSON,
		"BENCH_lint.json":   lintJSON,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func stubMeasurers(off, sampled, full, jobsPerS, coldS, warmS float64) measurers {
	return measurers{
		shadow: func(string) (float64, float64, float64, error) { return off, sampled, full, nil },
		jobs:   func(n int) (float64, error) { return jobsPerS, nil },
		lint:   func(root string) (float64, float64, error) { return coldS, warmS, nil },
	}
}

func TestRunAllPass(t *testing.T) {
	dir := writeContracts(t)
	var out, errb bytes.Buffer
	m := stubMeasurers(8000, 10000, 72000, 60000, 6.0, 0.05)
	if code := run([]string{"-C", dir}, &out, &errb, m); code != 0 {
		t.Fatalf("exit %d, stderr: %s\ntable:\n%s", code, errb.String(), out.String())
	}
	// Two shadow workloads, two rows each, plus jobs and lint.
	if strings.Count(out.String(), "PASS") != 6 {
		t.Fatalf("want 6 PASS rows:\n%s", out.String())
	}
	for _, w := range []string{"(cholesky n=200)", "(" + denseWorkload + ")"} {
		if strings.Count(out.String(), w) != 2 {
			t.Fatalf("want sampled and full rows for %s:\n%s", w, out.String())
		}
	}
}

func TestRunFailingContract(t *testing.T) {
	dir := writeContracts(t)
	var out, errb bytes.Buffer
	// Full-shadow overhead 25x against a 20x bound: the broken-stride case.
	m := stubMeasurers(8000, 10000, 200000, 60000, 6.0, 0.05)
	if code := run([]string{"-C", dir}, &out, &errb, m); code != 1 {
		t.Fatalf("exit %d, want 1\ntable:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("no FAIL row:\n%s", out.String())
	}
}

func TestRunOnlySubset(t *testing.T) {
	dir := writeContracts(t)
	var out, errb bytes.Buffer
	m := measurers{ // shadow/lint stubs must not be called
		jobs: func(n int) (float64, error) { return 60000, nil },
	}
	if code := run([]string{"-C", dir, "-only", "jobs"}, &out, &errb, m); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if strings.Count(out.String(), "PASS") != 1 {
		t.Fatalf("want exactly the jobs row:\n%s", out.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "nope"}, &out, &errb, stubMeasurers(1, 1, 1, 1, 1, 1)); code != 2 {
		t.Fatalf("unknown check: exit %d, want 2", code)
	}
	if code := run([]string{"-C", t.TempDir()}, &out, &errb, stubMeasurers(1, 1, 1, 1, 1, 1)); code != 2 {
		t.Fatalf("missing contract files: exit %d, want 2", code)
	}
}
