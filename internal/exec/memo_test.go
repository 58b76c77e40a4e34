package exec_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/suite"
)

// TestChecksOncePerTimeLoop pins what the loop memos save: on two workers, a
// run of four of the irregular kernels checks each gather loop's cursors and
// index elements once per worker, and jacobi1d's cursors, and redblack's
// behind their parity guards, enter once per execution of the time loop,
// whatever the number of time steps. Without the memos every step re-checked
// them, T times a run; the row entries still grow with T.
func TestChecksOncePerTimeLoop(t *testing.T) {
	for _, name := range []string{"permcopy", "gatherscatter", "meshsmooth", "edgerelax", "jacobi1d", "redblack"} {
		t.Run(name, func(t *testing.T) {
			k, err := suite.GetIrregular(name)
			if err != nil {
				k, err = suite.Get(name)
			}
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checks := func(steps int64) (n, rows int64) {
				r, err := c.NewRunner(exec.Config{Workers: 2,
					Params: map[string]int64{"N": 256, "T": steps}})
				if err != nil {
					t.Fatal(err)
				}
				total, entries := exec.RecordChecks(r.Runner), exec.RecordRowEntries(r.Runner)
				if _, err := r.Run(); err != nil {
					t.Fatal(err)
				}
				return total(), entries()
			}
			one, oneRows := checks(1)
			many, manyRows := checks(8)
			t.Logf("checks: %d at T=1, %d at T=8; row entries %d, %d", one, many, oneRows, manyRows)
			if many != one || manyRows <= oneRows {
				t.Fatalf("%d cursor checks at T=1, %d at T=8 (row entries %d, %d): the time steps after the first must reuse the first one's",
					one, many, oneRows, manyRows)
			}
		})
	}
}
