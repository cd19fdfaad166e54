package main

import (
	"fmt"
	"io"
)

// row is one re-asserted contract line of the diff table. Dir says
// which side of Bound the Measured value must land on.
type row struct {
	Check    string  // human name of the asserted contract
	Recorded float64 // the value the BENCH file recorded
	Bound    float64 // the limit after applying the tolerance
	Measured float64 // what this run observed
	Unit     string  // display unit ("x", "/s")
	Dir      rune    // '<': measured <= bound passes; '>': measured >= bound passes
}

func (r row) ok() bool {
	if r.Dir == '>' {
		return r.Measured >= r.Bound
	}
	return r.Measured <= r.Bound
}

// evalShadow re-asserts the shadow overhead contract from measured
// per-run times of one workload. slack multiplies the recorded bounds:
// the contract machine is not the CI machine, and the check exists to
// catch a broken sampling discipline (an order of magnitude), not
// scheduler jitter (tens of percent).
func evalShadow(c shadowContract, workload string, off, sampled, full, slack float64) []row {
	return []row{
		{
			Check:    "shadow sampled overhead (" + workload + ")",
			Recorded: c.SampledMax,
			Bound:    c.SampledMax * slack,
			Measured: sampled / off,
			Unit:     "x",
			Dir:      '<',
		},
		{
			Check:    "shadow full overhead (" + workload + ")",
			Recorded: c.FullMax,
			Bound:    c.FullMax * slack,
			Measured: full / off,
			Unit:     "x",
			Dir:      '<',
		},
	}
}

// evalJobs re-asserts the ephemeral throughput floor. floorFrac is the
// fraction of the recorded jobs/s the CI machine must still reach —
// generous, because the recorded number came from a quiet reference
// host, but a queue-machinery regression (accidental fsync on the
// ephemeral path, a lock convoy) costs 10-100x and still trips it.
func evalJobs(c jobsContract, measured, floorFrac float64) row {
	return row{
		Check:    "jobs ephemeral throughput",
		Recorded: c.EphemeralJobsPerS,
		Bound:    c.EphemeralJobsPerS * floorFrac,
		Measured: measured,
		Unit:     "/s",
		Dir:      '>',
	}
}

// evalLint re-asserts that the lint fact cache still pays for itself:
// warm RunRepo must beat cold by at least minSpeedup. The recorded
// ratio is ~760x; requiring 5x is deliberately loose — it catches a
// cache that stopped hitting (ratio ~1), not one that got slower.
func evalLint(c lintContract, coldS, warmS, minSpeedup float64) row {
	return row{
		Check:    "lint warm-cache speedup",
		Recorded: c.ColdS / c.WarmS,
		Bound:    minSpeedup,
		Measured: coldS / warmS,
		Unit:     "x",
		Dir:      '>',
	}
}

// renderTable writes the diff table and reports whether every row
// passed.
func renderTable(w io.Writer, rows []row) (allOK bool, err error) {
	allOK = true
	if _, err = fmt.Fprintf(w, "%-46s %12s %14s %12s  %s\n",
		"CHECK", "RECORDED", "BOUND", "MEASURED", "STATUS"); err != nil {
		return allOK, err
	}
	for _, r := range rows {
		status := "PASS"
		if !r.ok() {
			status = "FAIL"
			allOK = false
		}
		if _, err = fmt.Fprintf(w, "%-46s %11.2f%s %2c= %9.2f%s %11.2f%s  %s\n",
			r.Check, r.Recorded, r.Unit, r.Dir, r.Bound, r.Unit,
			r.Measured, r.Unit, status); err != nil {
			return allOK, err
		}
	}
	return allOK, err
}
