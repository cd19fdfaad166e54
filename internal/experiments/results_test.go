package experiments_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/experiments"
	"positlab/internal/runner"
)

// TestResultsByteIdentical recomputes the table1, fig6, fig7, fig8,
// fig9, table2 and table3 rows of six small matrices through the
// runner, with the CLI's defaults, and requires each CSV row to equal,
// byte for byte, that matrix's row in results/<id>.csv. Table I's
// measured condition number is printed to 17 digits, so the row pins
// the float64 Cholesky behind CondViaCholesky too. The run is
// instrumented, and each job's operation counts must equal wantOps:
// a refactor that keeps the rows but adds, drops or reorders format
// arithmetic or conversions fails here. Table3 memoizes its rows per
// process, and a job that reuses them counts no operations, so the
// test drops the memo first.
func TestResultsByteIdentical(t *testing.T) {
	experiments.ForgetTable3()
	matrices := []string{"bcsstk01", "bcsstk02", "bcsstk22", "lund_a", "lund_b", "nos1"}
	ids := []string{"table1", "fig6", "fig7", "fig8", "fig9", "table2", "table3"}
	chol := arith.OpCounts{Add: 11345238, Sub: 372924, Mul: 11718162, Div: 191160, Sqrt: 2349, Conv: 377622}
	wantOps := map[string]arith.OpCounts{
		"table1": {},
		"fig6":   {Add: 24760684, Mul: 24760684, Div: 17740, Conv: 55224},
		"fig7":   {Add: 20655888, Mul: 20655888, Div: 14438, Conv: 55224},
		"fig8":   chol,
		"fig9":   chol,
		"table2": {Add: 6125530, Mul: 6125530, Div: 102338, Sqrt: 1283, Conv: 375273},
		"table3": {Add: 11345238, Mul: 11345238, Div: 186462, Sqrt: 2349, Conv: 375273},
	}
	opt := experiments.Options{Matrices: matrices, CGCapFactor: 10, IRMaxIter: 1000}
	results, rep, err := runner.Default.Run(context.Background(), ids, runner.Config{Jobs: 2, Options: opt, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range rep.Jobs {
		if jr.Err != "" {
			t.Fatalf("%s: %s", jr.ID, jr.Err)
		}
		if jr.Ops == nil || *jr.Ops != wantOps[jr.ID] {
			t.Errorf("%s: ops %+v, want %+v", jr.ID, jr.Ops, wantOps[jr.ID])
		}
	}
	for _, id := range ids {
		var got string
		for _, a := range results[id].Artifacts {
			if a.Kind == runner.CSV {
				got = a.Content
			}
		}
		b, err := os.ReadFile(filepath.Join("..", "..", "results", id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		want, rows := csvRows(string(b)), csvRows(got)
		if rows[""] != want[""] {
			t.Errorf("%s: header %q, results/%s.csv has %q", id, rows[""], id, want[""])
		}
		if len(rows) != len(matrices)+1 {
			t.Errorf("%s: %d rows, want %d", id, len(rows)-1, len(matrices))
		}
		for _, m := range matrices {
			if rows[m] != want[m] {
				t.Errorf("%s: row for %s differs from results/%s.csv\n got: %s\nwant: %s", id, m, id, rows[m], want[m])
			}
		}
	}
}

// csvRows keys each line of a CSV document by its first field; the
// header line is keyed "".
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
