package suite

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/costsim"
	"repro/internal/exec"
	"repro/internal/spmdrt"
)

// Table1 prints benchmark characteristics (paper's program table).
func Table1(w io.Writer, ms []Metrics) {
	fmt.Fprintln(w, "Table 1: benchmark characteristics")
	fmt.Fprintf(w, "%-14s %6s %10s %9s %11s %8s  %s\n",
		"program", "lines", "par.loops", "regions", "replicated", "guarded", "shape")
	for _, m := range ms {
		fmt.Fprintf(w, "%-14s %6d %10d %9d %11d %8d  %s\n",
			m.Kernel.Name, m.Lines, m.ParallelLoops, m.SeqRegions,
			m.Replicated, m.Guarded, m.Kernel.Shape)
	}
}

// Table2 prints static synchronization sites before and after optimization.
func Table2(w io.Writer, ms []Metrics) {
	fmt.Fprintln(w, "Table 2: static synchronization sites (base -> optimized)")
	fmt.Fprintf(w, "%-14s %13s %12s %10s %10s %10s\n",
		"program", "base.barriers", "opt.barriers", "counters", "neighbor", "eliminated")
	for _, m := range ms {
		elim := m.StaticBase.Barriers - m.StaticOpt.Barriers
		fmt.Fprintf(w, "%-14s %13d %12d %10d %10d %10d\n",
			m.Kernel.Name, m.StaticBase.Barriers, m.StaticOpt.Barriers,
			m.StaticOpt.Counters, m.StaticOpt.Neighbors, elim)
	}
}

// Table3 prints dynamic barrier counts at the standard input — the paper's
// headline table ("barrier synchronization is reduced 29% on average and
// by several orders of magnitude for certain programs"). The irregular
// suite, when given, follows as a second block with its own mean, so the
// affine MEAN keeps its population.
func Table3(w io.Writer, ms, irregular []Metrics) {
	fmt.Fprintf(w, "Table 3: dynamic synchronization executed (P=%d, standard input)\n", workersOf(ms))
	fmt.Fprintf(w, "%-14s %12s %12s %10s %12s %14s\n",
		"program", "base.barr", "opt.barr", "reduction", "opt.counter", "opt.neighbor")
	block := func(ms []Metrics, note string) {
		sum := 0.0
		for _, m := range ms {
			red := m.BarrierReduction()
			sum += red
			fmt.Fprintf(w, "%-14s %12d %12d %9.1f%% %12d %14d\n",
				m.Kernel.Name, m.DynBase.Barriers, m.DynOpt.Barriers,
				red*100, m.DynOpt.CounterIncrs, m.DynOpt.NeighborWaits)
		}
		if len(ms) > 0 {
			fmt.Fprintf(w, "%-14s %37.1f%%   (%s)\n", "MEAN", sum/float64(len(ms))*100, note)
		}
	}
	block(ms, "paper reports 29% on its suite")
	if len(irregular) > 0 {
		fmt.Fprintln(w, "irregular suite (communication through index arrays):")
		block(irregular, "irregular suite")
	}
}

func workersOf(ms []Metrics) int {
	if len(ms) == 0 {
		return 0
	}
	return ms[0].Workers
}

// table4Pairs is the number of base/opt pairs behind a Table 4 row.
const table4Pairs = 20

// Table4 measures elapsed time for the selected kernels across worker
// counts (the paper's performance table): per row, the paired comparison
// of the optimized SPMD run against the fork-join baseline (see Paired),
// both on all P workers, and the width the optimized runner would choose
// (exec.WidthDecision).
func Table4(w io.Writer, names []string, workerList []int) error {
	fmt.Fprintf(w, "Table 4: elapsed time, fork-join base vs optimized SPMD (%d pairs)\n", table4Pairs)
	fmt.Fprintf(w, "%-14s %4s %12s %12s %12s %12s %9s  %-10s %s\n",
		"program", "P", "base", "optimized", "delta", "±noise", "speedup", "verdict", "width")
	for _, name := range names {
		k, err := Get(name)
		if err != nil {
			return err
		}
		c, err := core.Compile(k.Source, core.Options{})
		if err != nil {
			return err
		}
		for _, p := range workerList {
			cmp, err := elapsedBaseVsOpt(c, k.Params, p, table4Pairs)
			if err != nil {
				return err
			}
			decided, err := c.NewRunner(exec.Config{Workers: p, Params: k.Params})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-14s %4d %12s %12s %12s %12s %8.2fx  %-10s %d\n",
				name, p, cmp.MedianA.Round(time.Microsecond), cmp.MedianB.Round(time.Microsecond),
				cmp.Delta.Round(time.Microsecond), cmp.Noise.Round(time.Microsecond),
				float64(cmp.MedianA)/float64(cmp.MedianB), cmp.Verdict(0), decided.Width())
		}
	}
	return nil
}

// elapsedBaseVsOpt builds c's baseline and optimized runners once at P
// workers and compares their Elapsed over n pairs.
func elapsedBaseVsOpt(c *core.Compiled, params map[string]int64, workers, n int) (Comparison, error) {
	base, err := c.NewBaselineRunner(exec.Config{Workers: workers, Params: params, FixedWidth: true})
	if err != nil {
		return Comparison{}, err
	}
	opt, err := c.NewRunner(exec.Config{Workers: workers, Params: params, FixedWidth: true})
	if err != nil {
		return Comparison{}, err
	}
	return Paired(n, runLeg(base, elapsed), runLeg(opt, elapsed))
}

// Figure1 measures per-episode barrier latency against team size for the
// three barrier implementations — the paper's motivation figure (barrier
// cost grows with the number of processors).
func Figure1(w io.Writer, sizes []int, episodes int) {
	fmt.Fprintln(w, "Figure 1: barrier latency vs processors (ns/episode)")
	fmt.Fprintf(w, "%4s %12s %12s %14s\n", "P", "central", "tree", "dissemination")
	for _, p := range sizes {
		var row []int64
		for _, kind := range []spmdrt.BarrierKind{spmdrt.Central, spmdrt.Tree, spmdrt.Dissemination} {
			team := spmdrt.NewTeam(p, kind)
			start := time.Now()
			team.Run(func(wk int) {
				for e := 0; e < episodes; e++ {
					team.Barrier(wk)
				}
			})
			row = append(row, time.Since(start).Nanoseconds()/int64(episodes))
		}
		fmt.Fprintf(w, "%4d %12d %12d %14d\n", p, row[0], row[1], row[2])
	}
}

// Figure4 prints predicted speedup curves (base fork-join vs optimized
// SPMD) from the cost simulator, under shared-memory and software-DSM
// synchronization costs — the paper's performance table, regenerated on
// the substrate we simulate because the host has no multiprocessor.
func Figure4(w io.Writer, names []string, workerList []int) error {
	fmt.Fprintln(w, "Figure 4: predicted speedup (cost simulation), base vs optimized")
	fmt.Fprintf(w, "%-14s %4s %12s %12s %14s %14s\n",
		"program", "P", "shm.base", "shm.opt", "dsm.base", "dsm.opt")
	for _, name := range names {
		k, err := Get(name)
		if err != nil {
			return err
		}
		c, err := core.Compile(k.Source, core.Options{})
		if err != nil {
			return err
		}
		for _, p := range workerList {
			row := make([]float64, 0, 4)
			for _, costs := range []costsim.Costs{costsim.SharedMemory(), costsim.SoftwareDSM()} {
				base, err := costsim.Simulate(c.Baseline, c.Plan, k.Params, p, costs)
				if err != nil {
					return err
				}
				opt, err := costsim.Simulate(c.Schedule, c.Plan, k.Params, p, costs)
				if err != nil {
					return err
				}
				row = append(row, base.Speedup(), opt.Speedup())
			}
			fmt.Fprintf(w, "%-14s %4d %11.2fx %11.2fx %13.2fx %13.2fx\n",
				name, p, row[0], row[1], row[2], row[3])
		}
	}
	return nil
}

// Figure3 renders the per-program dynamic barrier reduction as an ASCII
// bar chart (the paper's per-program reduction figure).
func Figure3(w io.Writer, ms []Metrics) {
	fmt.Fprintln(w, "Figure 3: dynamic barrier reduction by program")
	for _, m := range ms {
		red := m.BarrierReduction()
		bar := strings.Repeat("#", int(red*50+0.5))
		fmt.Fprintf(w, "%-14s %6.1f%% |%-50s|\n", m.Kernel.Name, red*100, bar)
	}
}
