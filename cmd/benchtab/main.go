// Command benchtab regenerates the tables and figures of the paper's
// evaluation (see DESIGN.md §3 for the experiment index):
//
//	benchtab                  # everything at the standard input, P=8
//	benchtab -table 3 -p 16   # one table at another worker count
//	benchtab -fig 1           # barrier latency vs processors
//	benchtab -ablate repl     # Table 3 with replacement disabled (A2)
//	benchtab -ablate merge    # Table 3 with merging disabled (A3)
//	benchtab -gantt pipeline  # simulated base vs optimized timelines
//
// Table 4 compares timings: each row is a series of back-to-back pairs
// judged by suite.Paired (docs/INTERNALS.md, "How a timing comparison is
// made"). Every other timing — sync wait, pool lease, analysis cost, span
// and trace overhead — is a per-layer metric of `go run ./bench`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/costsim"
	"repro/internal/suite"
	"repro/internal/syncopt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are benchtab's flags.
type options struct {
	table   string
	fig     int
	workers int
	ablate  string
	gantt   string
}

func newFlagSet(stderr io.Writer) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.table, "table", "", "print only table N (1..4)")
	fs.IntVar(&o.fig, "fig", 0, "print only figure N (1, 3 or 4)")
	fs.IntVar(&o.workers, "p", 8, "worker count for dynamic measurements")
	fs.StringVar(&o.ablate, "ablate", "", "ablation for table 3: repl or merge")
	fs.StringVar(&o.gantt, "gantt", "", "render a simulated execution gantt for the named kernel (software-DSM costs)")
	return fs, o
}

// run is main with the process edges cut off (args, stdout, stderr, exit
// status), so tests can execute full command lines in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs, o := newFlagSet(stderr)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if err := tables(o, stdout); err != nil {
		fmt.Fprintln(stderr, "benchtab:", err)
		return 1
	}
	return 0
}

// tables prints what the flags select.
func tables(o *options, w io.Writer) error {
	if o.gantt != "" {
		return renderGantt(w, o.gantt, o.workers)
	}

	switch o.table {
	case "", "1", "2", "3", "4":
	default:
		return fmt.Errorf("unknown -table %q (want 1..4)", o.table)
	}

	opt := suite.MeasureOptions{Workers: o.workers}
	switch o.ablate {
	case "":
	case "repl":
		opt.Sync = syncopt.Options{NoReplacement: true}
	case "merge":
		opt.Sync = syncopt.Options{NoMerging: true}
	default:
		return fmt.Errorf("unknown -ablate %q", o.ablate)
	}

	wantTable := func(n string) bool { return o.table == "" && o.fig == 0 || o.table == n }
	wantFig := func(n int) bool { return o.table == "" && o.fig == 0 || o.fig == n }

	var ms []suite.Metrics
	if wantTable("1") || wantTable("2") || wantTable("3") || wantFig(3) {
		var err error
		ms, err = suite.MeasureAll(opt)
		if err != nil {
			return err
		}
	}
	if o.ablate != "" {
		fmt.Fprintf(w, "(ablation: %s disabled)\n", o.ablate)
	}
	if wantTable("1") {
		suite.Table1(w, ms)
		fmt.Fprintln(w)
	}
	if wantTable("2") {
		suite.Table2(w, ms)
		fmt.Fprintln(w)
	}
	if wantTable("3") {
		irregular, err := suite.MeasureIrregAll(opt)
		if err != nil {
			return err
		}
		suite.Table3(w, ms, irregular)
		fmt.Fprintln(w)
	}
	if wantTable("4") {
		err := suite.Table4(w,
			[]string{"jacobi2d", "shallow", "pipeline", "dotchain"},
			[]int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if wantFig(4) {
		err := suite.Figure4(w,
			[]string{"jacobi2d", "shallow", "pipeline", "tred2like", "dotchain"},
			[]int{1, 2, 4, 8, 16, 32})
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if wantFig(1) {
		suite.Figure1(w, []int{1, 2, 4, 8, 16}, 2000)
		fmt.Fprintln(w)
	}
	if wantFig(3) {
		suite.Figure3(w, ms)
	}
	return nil
}

// renderGantt shows base vs optimized simulated timelines for one kernel,
// making the pipelining wave of §3.3 visible.
func renderGantt(w io.Writer, name string, workers int) error {
	k, err := suite.Get(name)
	if err != nil {
		return err
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		return err
	}
	costs := costsim.SoftwareDSM()
	fmt.Fprintf(w, "%s, P=%d, software-DSM costs\n\nfork-join baseline:\n", name, workers)
	res, tr, err := costsim.SimulateTrace(c.Baseline, c.Plan, k.Params, workers, costs)
	if err != nil {
		return err
	}
	costsim.RenderGantt(w, res, tr, workers, 100)
	fmt.Fprintf(w, "\noptimized SPMD:\n")
	res, tr, err = costsim.SimulateTrace(c.Schedule, c.Plan, k.Params, workers, costs)
	if err != nil {
		return err
	}
	costsim.RenderGantt(w, res, tr, workers, 100)
	return nil
}
