package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"positlab/internal/runner"
)

// repoRoot is the checkout this module's replace directive points at.
const repoRoot = ".."

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, pct int
	}{{1000, 99}, {2000, 99}, {999, 98}, {500, 98}, {100, 90}, {11, 9}, {10, 100}, {1, 100}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // any order
		}
		pct, v := tailPercentile(xs)
		if pct != tc.pct {
			t.Errorf("n=%d: percentile %d, want %d", tc.n, pct, tc.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if pct < 100 && beyond < 10 {
			t.Errorf("n=%d: p%d = %v has %d samples beyond it, want >= 10", tc.n, pct, v, beyond)
		}
		if pct == 100 && v != float64(tc.n) {
			t.Errorf("n=%d: with too few samples the rule reports the maximum, got %v", tc.n, v)
		}
	}
	// A failed request counts as missing the limit: eleven failures
	// out of 1000 put +Inf at the p99.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
		if i < 11 {
			xs[i] = math.Inf(1)
		}
	}
	if _, v := tailPercentile(xs); !math.IsInf(v, 1) {
		t.Errorf("p99 with 11 failures in 1000 = %v, want +Inf", v)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
}

func at(s float64) time.Time { return time.Unix(1000, 0).Add(time.Duration(s * float64(time.Second))) }

func TestSelfTimeOnSyntheticSpans(t *testing.T) {
	tr := &Tracer{}
	root := tr.Add(0, "runner", "pass", "", at(0), at(10))
	// Overlapping children cover [1,5] and [7,8]: 5 s of the parent.
	tr.Add(root, "experiments", "a", "a", at(1), at(3))
	b := tr.Add(root, "experiments", "b", "b", at(2), at(5))
	tr.Add(root, "experiments", "c", "c", at(7), at(8))
	// A grandchild is charged to its own parent only.
	tr.Add(b, "solvers", "factor", "b", at(2), at(4))
	// A child sticking out of its parent is clipped to it.
	tr.Add(root, "jobs", "late", "", at(9.5), at(12))

	got := selfTimes(tr.Spans())
	want := map[string]time.Duration{
		"runner":      4500 * time.Millisecond, // 10 - (4 + 1 + 0.5)
		"experiments": 4 * time.Second,         // a 2 + b (3-2) + c 1
		"solvers":     2 * time.Second,
		"jobs":        2500 * time.Millisecond,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestBusyShareOnSyntheticSpans(t *testing.T) {
	jobs := []Span{{Start: at(0), End: at(10)}, {Start: at(0), End: at(4)}, {Start: at(4), End: at(5)}}
	if got := busyShare(jobs, 2, 10*time.Second); got != 0.75 {
		t.Errorf("busy share = %v, want 0.75 (15 job-seconds over 2 workers x 10 s)", got)
	}
	if got := busyShare(jobs, 0, time.Second); got != 0 {
		t.Errorf("busy share with no workers = %v", got)
	}
}

func TestCriticalPathFollowsDeclaredDeps(t *testing.T) {
	rep := &runner.RunReport{Jobs: []runner.JobReport{
		{ID: "table2", WallMS: 9000}, {ID: "table3", WallMS: 7000}, {ID: "fig10", WallMS: 3000},
	}}
	if got := criticalPath(rep); got != 10 {
		t.Errorf("critical path = %v s, want table3 + fig10 = 10 s", got)
	}
}

// referenceCSV builds a pass's CSV for the subset from the checked-in
// results file.
func referenceCSV(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, "results", name))
	if err != nil {
		t.Fatal(err)
	}
	rows := csvRows(string(b))
	lines := []string{rows[""]}
	for _, m := range paperMatrices {
		lines = append(lines, rows[m])
	}
	return strings.Join(lines, "\n") + "\n"
}

func TestAlteredCSVRowFailsTheRun(t *testing.T) {
	spec := paperSpec{ids: []string{"table2"}}
	rep := &runner.RunReport{Jobs: []runner.JobReport{{ID: "table2"}}}
	pass := func(content string) *report {
		results := map[string]*runner.Result{"table2": {}}
		if content != "" {
			results["table2"].Artifacts = []runner.Artifact{{Name: "table2.csv", Kind: runner.CSV, Content: content}}
		}
		r := newReport()
		checkPass(repoRoot, spec, results, rep, r)
		return r
	}
	good := referenceCSV(t, "table2.csv")
	if r := pass(good); len(r.problems) != 0 {
		t.Fatalf("the reference rows themselves fail: %v", r.problems)
	}
	for _, bad := range []string{
		strings.Replace(good, "1000+", "999", 1),              // one cell
		strings.Replace(good, "\n685_bus,", "\n685_bus ,", 1), // one byte
		strings.SplitAfterN(good, "\n", 3)[0],                 // rows missing
		"",                                                    // no CSV at all
	} {
		r := pass(bad)
		if len(r.problems) == 0 {
			t.Fatalf("altered CSV passed the check:\n%s", bad)
		}
		line, err := r.result([]declMetric{{"wall_s", "s"}}, true)
		if err != nil {
			t.Fatal(err)
		}
		var res struct{ Correct bool }
		if err := json.Unmarshal(line, &res); err != nil || res.Correct {
			t.Errorf("result line %s: want correct=false", line)
		}
	}
}

func TestExtensionTableMustMatchFullResults(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(repoRoot, "full_results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"ext-fft", "ext-shock"} {
		body, ok := section(string(b), id)
		if !ok || !strings.Contains(body, "Posit(8,0)") {
			t.Fatalf("%s: section not found or incomplete: %q", id, body)
		}
		if err := checkSection(repoRoot, id, body); err != nil {
			t.Errorf("%s: %v", id, err)
		}
		if err := checkSection(repoRoot, id, strings.Replace(body, "e-0", "e-1", 1)); err == nil {
			t.Errorf("%s: an altered table passed", id)
		}
	}
}

func testClient(t *testing.T) *client {
	t.Helper()
	m, err := buildMix(repoRoot, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &client{m: m, refs: map[int][]byte{}, solveRes: map[int]solveSummary{}}
}

func TestMismatchedJobResultFailsTheRun(t *testing.T) {
	c := testClient(t)
	i := c.m.solves[0]
	c.checkRepeat(i, []byte(`{"solver":"cg","iterations":100,"rel_residual":1e-6,"wall_ms":3.2,"ops":{"add":7}}`), "solve")
	// The same answer with other timings and op counts matches.
	c.checkJob(i, []byte(`{"ops":{"add":9},"wall_ms":5.1,"iterations":100,"solver":"cg","rel_residual":1e-6}`))
	c.checkRepeat(i, []byte(`{"solver":"cg","iterations":100,"rel_residual":1e-6,"wall_ms":4,"ops":{}}`), "solve")
	if len(c.problems) != 0 {
		t.Fatalf("matching answers flagged: %v", c.problems)
	}
	c.checkJob(i, []byte(`{"solver":"cg","iterations":101,"rel_residual":1e-6,"wall_ms":3.2}`))
	if len(c.problems) != 1 {
		t.Fatalf("a job result that differs from /v1/solve passed: %v", c.problems)
	}
	c.checkRepeat(i, []byte(`{"solver":"cg","iterations":100,"rel_residual":2e-6}`), "solve")
	if len(c.problems) != 2 {
		t.Fatalf("a repeated request with a different answer passed: %v", c.problems)
	}
}

func TestSequenceIsFixedBySeed(t *testing.T) {
	c := testClient(t)
	a := c.m.sequence(3, 4)
	if !reflect.DeepEqual(a, c.m.sequence(3, 4)) {
		t.Fatal("one seed gave two sequences")
	}
	if reflect.DeepEqual(a, c.m.sequence(4, 4)) {
		t.Error("two seeds gave one sequence")
	}
	n := 0
	perSpec := map[int]int{}
	for _, op := range a {
		n += max(len(op.batch), 1)
		if op.batch == nil && c.m.specs[op.spec].class != classConvert {
			perSpec[op.spec]++
		}
	}
	if n != 4*c.m.requestsPerRound() {
		t.Errorf("%d requests, want %d", n, 4*c.m.requestsPerRound())
	}
	for _, i := range append(append([]int(nil), c.m.solves...), c.m.diags...) {
		want := 4
		if slices.Contains(c.m.twice, i) {
			want = 8
		}
		if perSpec[i] != want {
			t.Errorf("spec %d (%s) ran %d times in 4 rounds, want %d", i, c.m.specs[i].system, perSpec[i], want)
		}
	}
	perJob := map[int]int{}
	for _, op := range a {
		for _, i := range op.batch {
			perJob[i]++
		}
	}
	if len(perJob) != len(jobSystems)*len(solveConfigs) {
		t.Errorf("%d job specs ran, want every solve class on each of %v", len(perJob), jobSystems)
	}
	for i, n := range perJob {
		if n != 4 {
			t.Errorf("job spec %d (%s) ran %d times in 4 rounds, want 4", i, c.m.specs[i].system, n)
		}
	}
	if len(c.m.twice) != 1+len(medianSystems) {
		t.Errorf("%d diagnose specs run twice per round, want the tail system and %v", len(c.m.twice), medianSystems)
	}
}

func TestBenchmarkDeclaration(t *testing.T) {
	d, err := loadDeclared(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.EndToEnd) != 9 || len(d.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(d.EndToEnd), len(d.PerLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	// Every rung of the ladder is declared for every format.
	for _, lf := range ladderFormats {
		for _, k := range []string{"mul_ns", "add_ns", "dot_ns", "trailing_ns", "matvec_ns"} {
			if !seen["arith."+lf.name+"."+k] {
				t.Errorf("arith.%s.%s is not declared", lf.name, k)
			}
		}
	}
	for _, id := range append(paperSpecs["paper-16bit"].ids, paperSpecs["paper-32bit"].ids...) {
		if !seen["runner."+id+".wall_s"] {
			t.Errorf("runner.%s.wall_s is not declared", id)
		}
	}
}
