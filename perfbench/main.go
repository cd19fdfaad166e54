// Command perfbench is the repository's benchmark. It runs one named
// workload, checks the program's outputs, and prints one JSON result
// line: every end-to-end metric of BENCHMARK.json with tracing off
// (--trace 0), or, from a separate traced run (--trace 1), every
// per-layer metric, with the run's spans written to
// .bench_build/trace/<workload>-seed<n>.json.
//
// Run it from the repository root through run.sh, which builds this
// program and positd from the checkout first:
//
//	bash perfbench/run.sh --workload paper-16bit --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload serve-mix --seed 7 --seconds 20 --trace 1
//
// Workloads: paper-16bit and paper-32bit (runner passes over the
// paper's 16-bit and 32-bit experiments on a fixed matrix subset) and
// serve-mix (a seeded closed-loop request mix against positd).
// BENCHMARK.json gives why each was chosen; perfbench/meta.json holds
// the environment, the per-layer targets and the reference rows.
//
// The exit status is 0 when every output check passed, 1 when a check
// failed (the result line then says "correct": false) or the run could
// not complete (no result line), and 2 on usage errors or outside a
// repository checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is one run's configuration.
type env struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  int
	root     string // the checkout root (the working directory)
	build    string // root/.bench_build: binaries, temp dirs, traces
	self     string // this executable, for the paper workloads' child processes
	tr       *Tracer
}

var workloads = map[string]func(*env) (*report, error){
	"paper-16bit": runPaper,
	"paper-32bit": runPaper,
	"serve-mix":   runServeMix,
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: paper-16bit, paper-32bit or serve-mix")
	seed := fs.Int64("seed", 1, "seed of the serve-mix request sequence (the paper workloads run the paper's fixed suite)")
	seconds := fs.Int("seconds", 20, "run length in seconds; sets how much work a run measures")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics and spans instead of end-to-end metrics")
	child := fs.String("child", "", "internal: run as a child process of the named paper workload: set up, report ready, and exit")
	childPass := fs.Bool("child-pass", false, "internal: the child also runs, checks and reports the runner pass")
	childInstrument := fs.Bool("child-instrument", false, "internal: the child's pass counts arithmetic operations")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *child != "" {
		root, err := os.Getwd()
		if err == nil {
			err = runChild(ctx, root, *child, *childPass, *childInstrument, stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: child: %v\n", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload paper-16bit|paper-32bit|serve-mix, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	decl, err := loadDeclared(root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e := &env{ctx: ctx, workload: *workload, seed: *seed, seconds: *seconds, root: root,
		build: filepath.Join(root, ".bench_build"), self: self}
	want := decl.EndToEnd
	if *trace == 1 {
		e.tr = &Tracer{}
		want = decl.PerLayer
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d nproc=%d %s\n",
		e.workload, e.seed, e.seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	r, err := fn(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	if e.tr != nil {
		self := selfTimes(e.tr.Spans())
		for _, layer := range sortedKeys(self) {
			r.set("selftime."+layer+"_s", self[layer].Seconds(), 1)
		}
		dir := filepath.Join(e.build, "trace")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", e.workload, e.seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = e.tr.WriteFile(path)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: spans in %s\n", path)
	}
	line, err := r.result(want, e.tr != nil)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	r.print(stderr, want)
	fmt.Fprintln(stdout, string(line))
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

// declared is the metric list of BENCHMARK.json.
type declared struct {
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclared(root string) (*declared, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	return &d, nil
}

// report collects one run's metrics, per-class operation counts and
// failed output checks.
type report struct {
	values   map[string]float64
	samples  map[string]int
	pct      map[string]int // the percentile a tail metric reports
	classes  map[string]*tally
	problems []string
}

type tally struct{ attempted, succeeded, failed int }

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, pct: map[string]int{}, classes: map[string]*tally{}}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// setTail records a tail latency with the percentile it stands for.
func (r *report) setTail(name string, pct int, v float64, n int) {
	r.set(name, v, n)
	r.pct[name] = pct
}

// count records one attempted operation of a class.
func (r *report) count(class string, ok bool) {
	t := r.classes[class]
	if t == nil {
		t = &tally{}
		r.classes[class] = t
	}
	t.attempted++
	if ok {
		t.succeeded++
	} else {
		t.failed++
	}
}

func (r *report) totals() (attempted, failed int) {
	for _, t := range r.classes {
		attempted += t.attempted
		failed += t.failed
	}
	return attempted, failed
}

// setOKRatio records succeeded / attempted over every class.
func (r *report) setOKRatio() {
	a, f := r.totals()
	r.set("ok_ratio", float64(a-f)/float64(max(a, 1)), a)
}

// problem records a failed output check; any problem fails the run.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) problemIf(err error) {
	if err != nil {
		r.problem("%v", err)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the final JSON line. An end-to-end metric the run did
// not measure is an error; a per-layer metric of a layer the workload
// does not reach reads 0.
func (r *report) result(want []declMetric, perLayer bool) ([]byte, error) {
	metrics := map[string]metricValue{}
	for _, m := range want {
		v, ok := r.values[m.Name]
		if !ok && !perLayer {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		metrics[m.Name] = metricValue{v, m.Unit}
	}
	for _, name := range sortedKeys(r.values) {
		if _, ok := metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	attempted, failed := r.totals()
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.problems) == 0, max(attempted, 1), failed, metrics})
}

// print writes the human-readable summary: each metric with its unit
// and sample count, the per-class counts, and any failed check.
func (r *report) print(w io.Writer, want []declMetric) {
	for _, m := range want {
		v, ok := r.values[m.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-34s %14s %-6s (layer not reached by this workload)\n", m.Name, "0", m.Unit)
		case r.pct[m.Name] != 0:
			fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d, p%d\n", m.Name, v, m.Unit, r.samples[m.Name], r.pct[m.Name])
		default:
			fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", m.Name, v, m.Unit, r.samples[m.Name])
		}
	}
	for _, c := range sortedKeys(r.classes) {
		t := r.classes[c]
		fmt.Fprintf(w, "  class %-24s attempted %5d  succeeded %5d  failed %d\n", c, t.attempted, t.succeeded, t.failed)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "perfbench: CHECK FAILED: %s\n", p)
	}
}
