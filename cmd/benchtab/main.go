// Command benchtab regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index):
//
//	benchtab                  # everything at the standard input, P=8
//	benchtab -table 3 -p 16   # one table at another worker count
//	benchtab -table W         # per-site sync wait, base vs optimized
//	benchtab -table R         # analysis cost: FM solver work + phase wall per kernel
//	benchtab -table P -out BENCH_pool.json   # team pool reuse latency
//	benchtab -table P -chaos-seed 1          # ...plus the retry/fallback leg
//	benchtab -table H -out BENCH_profile.json # sync-wait profile rollup
//	benchtab -table I -out BENCH_irreg.json   # irregular suite: inspector/executor
//	benchtab -table F -out BENCH_fdo.json     # profile-guided vs static sync wait
//	benchtab -table S -out BENCH_spans.json   # run-lifecycle span overhead
//	benchtab -fig 1           # barrier latency vs processors
//	benchtab -ablate repl     # Table 3 with replacement disabled (A2)
//	benchtab -ablate merge    # Table 3 with merging disabled (A3)
//
// Tables 4, W, P, F and S compare timings; every such comparison is a
// series of back-to-back pairs judged by suite.Paired (docs/INTERNALS.md,
// "How a timing comparison is made").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/costsim"
	"repro/internal/envelope"
	"repro/internal/remarks"
	"repro/internal/suite"
	"repro/internal/syncopt"
)

func main() {
	var (
		table     = flag.String("table", "", "print only table N (1..4, W, P, R, F, H, I or S)")
		fig       = flag.Int("fig", 0, "print only figure N (1, 3 or 4)")
		workers   = flag.Int("p", 8, "worker count for dynamic measurements")
		ablate    = flag.String("ablate", "", "ablation for table 3: repl or merge")
		gantt     = flag.String("gantt", "", "render a simulated execution gantt for the named kernel (software-DSM costs)")
		kernels   = flag.String("kernels", "", "comma-separated kernel subset for table F, H or S (default: all; S defaults to a three-kernel spread)")
		outJSON   = flag.String("out", "", "with -table P, F, H, I or S: also write the report as a versioned JSON envelope to this file (BENCH_pool.json / BENCH_fdo.json / BENCH_profile.json / BENCH_irreg.json / BENCH_spans.json)")
		samples   = flag.Int("samples", 0, "pairs per comparison (see docs/INTERNALS.md, How a timing comparison is made): with -table P cold/pooled per worker count (default 300), with -table F static/fdo per kernel (default 10), with -table S off/on per kernel (default 10); with -table H: runs per kernel (default 10)")
		chaosSeed = flag.Int64("chaos-seed", 0, "with -table P: also run the stall-injected retry/fallback leg seeded here (0 skips it)")
	)
	flag.Parse()

	if *gantt != "" {
		if err := renderGantt(*gantt, *workers); err != nil {
			fail(err)
		}
		return
	}

	tbl := strings.ToUpper(*table)
	switch tbl {
	case "", "1", "2", "3", "4", "W", "P", "R", "F", "H", "I", "S":
	default:
		fail(fmt.Errorf("unknown -table %q (want 1..4, W, P, R, F, H, I or S)", *table))
	}

	opt := suite.MeasureOptions{Workers: *workers}
	switch *ablate {
	case "":
	case "repl":
		opt.Sync = syncopt.Options{NoReplacement: true}
	case "merge":
		opt.Sync = syncopt.Options{NoMerging: true}
	default:
		fail(fmt.Errorf("unknown -ablate %q", *ablate))
	}

	wantTables := func(n string) bool { return tbl == "" && *fig == 0 || tbl == n }
	wantFig := func(n int) bool { return tbl == "" && *fig == 0 || *fig == n }

	// Table W needs the sync-event trace of each measured run.
	opt.Trace = wantTables("W")

	var ms []suite.Metrics
	needMeasure := wantTables("1") || wantTables("2") || wantTables("3") ||
		wantTables("W") || wantFig(3)
	if needMeasure {
		var err error
		ms, err = suite.MeasureAll(opt)
		if err != nil {
			fail(err)
		}
	}
	if *ablate != "" {
		fmt.Printf("(ablation: %s disabled)\n", *ablate)
	}
	if wantTables("1") {
		suite.Table1(os.Stdout, ms)
		fmt.Println()
	}
	if wantTables("2") {
		suite.Table2(os.Stdout, ms)
		fmt.Println()
	}
	if wantTables("3") {
		suite.Table3(os.Stdout, ms)
		fmt.Println()
	}
	if wantTables("W") {
		suite.TableW(os.Stdout, ms)
		fmt.Println()
	}
	if wantTables("4") {
		err := suite.Table4(os.Stdout,
			[]string{"jacobi2d", "shallow", "pipeline", "dotchain"},
			[]int{1, 2, 4, 8})
		if err != nil {
			fail(err)
		}
		fmt.Println()
	}
	// Tables F, S and H take a -kernels subset.
	var names []string
	if *kernels != "" {
		names = strings.Split(*kernels, ",")
	}
	if wantTables("P") {
		rep, err := suite.MeasurePoolBench(nil, *samples, *chaosSeed)
		if err != nil {
			fail(err)
		}
		suite.TableP(os.Stdout, rep)
		fmt.Println()
		if tbl == "P" {
			writeReport(*outJSON, envelope.ToolPoolBench, rep)
		}
	}
	// Tables F, S and H are opt-in (not part of the run-everything
	// default): F runs the full feedback loop per kernel (profile pass,
	// re-optimization, traced measurement pairs), S runs 2×(pairs+1) full
	// requests per kernel, H runs every kernel -samples times traced.
	if tbl == "F" {
		rep, err := suite.MeasureFDOBench(names, *workers, *samples)
		if err != nil {
			fail(err)
		}
		suite.TableF(os.Stdout, rep)
		fmt.Println()
		writeReport(*outJSON, envelope.ToolFDOBench, rep)
	}
	if tbl == "S" {
		rep, err := suite.MeasureSpanBench(names, *workers, *samples)
		if err != nil {
			fail(err)
		}
		suite.TableS(os.Stdout, rep)
		fmt.Println()
		writeReport(*outJSON, envelope.ToolSpanBench, rep)
	}
	if tbl == "H" {
		rep, err := suite.MeasureProfileBench(names, *workers, *samples)
		if err != nil {
			fail(err)
		}
		suite.TableH(os.Stdout, rep)
		fmt.Println()
		writeReport(*outJSON, envelope.ToolProfBench, rep)
	}
	if wantTables("I") {
		ims, err := suite.MeasureIrregAll(opt)
		if err != nil {
			fail(err)
		}
		var sets []*remarks.Set
		for _, m := range ims {
			c, err := core.Compile(m.Kernel.Source, core.Options{Sync: opt.Sync})
			if err != nil {
				fail(err)
			}
			sets = append(sets, c.Remarks())
		}
		rows := suite.IrregRows(ims, sets)
		suite.TableI(os.Stdout, rows)
		fmt.Println()
		if tbl == "I" {
			writeReport(*outJSON, envelope.ToolIrregBench, suite.NewIrregReport(rows))
		}
	}
	if wantTables("R") {
		rows, err := suite.MeasureAnalysisCosts(opt.Sync)
		if err != nil {
			fail(err)
		}
		suite.TableR(os.Stdout, rows)
		fmt.Println()
	}
	if wantFig(4) {
		err := suite.Figure4(os.Stdout,
			[]string{"jacobi2d", "shallow", "pipeline", "tred2like", "dotchain"},
			[]int{1, 2, 4, 8, 16, 32})
		if err != nil {
			fail(err)
		}
		fmt.Println()
	}
	if wantFig(1) {
		suite.Figure1(os.Stdout, []int{1, 2, 4, 8, 16}, 2000)
		fmt.Println()
	}
	if wantFig(3) {
		suite.Figure3(os.Stdout, ms)
	}
}

// renderGantt shows base vs optimized simulated timelines for one kernel,
// making the pipelining wave of §3.3 visible.
func renderGantt(name string, workers int) error {
	k, err := suite.Get(name)
	if err != nil {
		return err
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		return err
	}
	costs := costsim.SoftwareDSM()
	fmt.Printf("%s, P=%d, software-DSM costs\n\nfork-join baseline:\n", name, workers)
	res, tr, err := costsim.SimulateTrace(c.Baseline, c.Plan, k.Params, workers, costsim.ForkJoin, costs)
	if err != nil {
		return err
	}
	costsim.RenderGantt(os.Stdout, res, tr, workers, 100)
	fmt.Printf("\noptimized SPMD:\n")
	res, tr, err = costsim.SimulateTrace(c.Schedule, c.Plan, k.Params, workers, costsim.SPMD, costs)
	if err != nil {
		return err
	}
	costsim.RenderGantt(os.Stdout, res, tr, workers, 100)
	return nil
}

// writeReport writes payload to path as a versioned envelope of the given
// tool (the BENCH_*.json artifacts); an empty path writes nothing.
func writeReport(path, tool string, payload any) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := envelope.Write(f, tool, payload); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	os.Exit(1)
}
