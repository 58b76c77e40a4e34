package costsim_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/costsim"
	"repro/internal/suite"
	"repro/internal/syncopt"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/name byte for byte (-update
// rewrites the file).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted (go test ./internal/costsim -run %s -update):\n%s", path, t.Name(), got)
	}
}

// TestFigure4Golden pins the simulator's numbers: Figure 4 as benchtab
// prints it (five kernels × P ∈ {1..32}, both cost presets, table sizes),
// and every Result behind it with full float precision, since the table's
// two decimals would hide a drift.
func TestFigure4Golden(t *testing.T) {
	names := []string{"jacobi2d", "shallow", "pipeline", "tred2like", "dotchain"}
	ps := []int{1, 2, 4, 8, 16, 32}
	var fig bytes.Buffer
	if err := suite.Figure4(&fig, names, ps); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure4.golden", fig.Bytes())

	var raw bytes.Buffer
	for _, name := range names {
		c, params := compile(t, name)
		for _, p := range ps {
			for ci, costs := range []costsim.Costs{costsim.SharedMemory(), costsim.SoftwareDSM()} {
				base, err := costsim.Simulate(c.Baseline, c.Plan, params, p, costs)
				if err != nil {
					t.Fatal(err)
				}
				opt, err := costsim.Simulate(c.Schedule, c.Plan, params, p, costs)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&raw, "%s P=%d costs=%d\n  base %+v\n  opt  %+v\n", name, p, ci, base, opt)
			}
		}
	}
	checkGolden(t, "figure4_results.golden", raw.Bytes())
}

// TestGanttGolden pins the per-worker timelines benchtab -gantt draws for
// pipeline and erlebacher at P=4: fork-join baseline and optimized SPMD
// under software-DSM costs, with the exact Result above each chart.
func TestGanttGolden(t *testing.T) {
	const P = 4
	for _, name := range []string{"pipeline", "erlebacher"} {
		t.Run(name, func(t *testing.T) {
			c, params := compile(t, name)
			var out bytes.Buffer
			for _, run := range []struct {
				label string
				sched *syncopt.Schedule
			}{{"base", c.Baseline}, {"opt", c.Schedule}} {
				res, tr, err := costsim.SimulateTrace(run.sched, c.Plan, params, P, costsim.SoftwareDSM())
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%s: %+v, %d segments\n", run.label, res, len(tr))
				costsim.RenderGantt(&out, res, tr, P, 100)
			}
			checkGolden(t, "gantt_"+name+".golden", out.Bytes())
		})
	}
}
