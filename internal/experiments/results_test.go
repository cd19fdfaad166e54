package experiments_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"positlab/internal/experiments"
	"positlab/internal/runner"
)

// TestResultsByteIdentical recomputes the table1, fig8, fig9, table2
// and table3 rows of six small matrices through the runner, with the
// CLI's defaults, and requires each CSV row to equal, byte for byte,
// that matrix's row in results/<id>.csv. Table I's measured condition
// number is printed to 17 digits, so the row pins the float64 Cholesky
// behind CondViaCholesky too.
func TestResultsByteIdentical(t *testing.T) {
	matrices := []string{"bcsstk01", "bcsstk02", "bcsstk22", "lund_a", "lund_b", "nos1"}
	ids := []string{"table1", "fig8", "fig9", "table2", "table3"}
	opt := experiments.Options{Matrices: matrices, CGCapFactor: 10, IRMaxIter: 1000}
	results, rep, err := runner.Default.Run(context.Background(), ids, runner.Config{Jobs: 2, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range rep.Jobs {
		if jr.Err != "" {
			t.Fatalf("%s: %s", jr.ID, jr.Err)
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
