package suite

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/profile"
)

// ProfileBench is one row of Table H: the per-kernel sync-wait profile
// rolled up across N runs on the optimized SPMD schedule — the ledger
// rollup view, measured in-process. Quantiles are of the merged
// whole-program wait distribution; the trend compares the p99 of the
// first half of the runs against the second half (interleaved across
// kernels, so ambient drift hits both halves of every kernel alike).
type ProfileBench struct {
	Kernel  string `json:"kernel"`
	Workers int    `json:"workers"`
	Runs    int    `json:"runs"`
	// Sites is the number of sync sites that recorded waits.
	Sites int `json:"sites"`
	// WaitNS is total blocking wait per run; P50NS/P99NS are the merged
	// whole-program wait quantiles.
	WaitNS int64 `json:"wait_ns_per_run"`
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	// FirstP99NS/SecondP99NS split the runs chronologically in half; a
	// large ratio between them flags drift within the measurement itself.
	FirstP99NS  int64 `json:"first_half_p99_ns"`
	SecondP99NS int64 `json:"second_half_p99_ns"`
	// TopSite/TopKind name the most expensive site by total wait.
	TopSite int    `json:"top_site,omitempty"`
	TopKind string `json:"top_kind,omitempty"`
}

// ProfileBenchReport is the Table H artifact, the payload of
// BENCH_profile.json.
type ProfileBenchReport struct {
	Workers int            `json:"workers"`
	Runs    int            `json:"runs"`
	Rows    []ProfileBench `json:"rows"`
}

// MeasureProfileBench runs each named kernel (all suite kernels when
// names is empty) runs times with tracing on, builds a per-run profile,
// and merges them per kernel. Runs are interleaved round-robin across
// kernels — run r of every kernel completes before run r+1 of any — so
// slow ambient drift lands evenly on every kernel and on both halves of
// the trend split.
func MeasureProfileBench(names []string, workers, runs int) (*ProfileBenchReport, error) {
	if workers <= 0 {
		workers = 8
	}
	if runs <= 0 {
		runs = 10
	}
	if len(names) == 0 {
		for _, k := range Kernels() {
			names = append(names, k.Name)
		}
	}
	type lane struct {
		runner   *core.Runner
		params   map[string]int64
		profiles []*profile.Profile
	}
	lanes := make([]*lane, len(names))
	for i, name := range names {
		k, err := Get(name)
		if err != nil {
			return nil, err
		}
		c, err := core.Compile(k.Source, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", name, err)
		}
		r, err := c.NewRunner(exec.Config{
			Workers: workers, Params: k.Params, Mode: exec.SPMD, Trace: true})
		if err != nil {
			return nil, fmt.Errorf("%s: runner: %w", name, err)
		}
		lanes[i] = &lane{runner: r, params: k.Params}
	}
	for r := 0; r < runs; r++ {
		for i, ln := range lanes {
			res, err := ln.runner.Run()
			if err != nil {
				return nil, fmt.Errorf("%s: run %d: %w", names[i], r+1, err)
			}
			ln.profiles = append(ln.profiles, ln.runner.Profile(res))
		}
	}
	rep := &ProfileBenchReport{Workers: workers, Runs: runs}
	for i, ln := range lanes {
		all, err := profile.Merge(ln.profiles...)
		if err != nil {
			return nil, fmt.Errorf("%s: merge: %w", names[i], err)
		}
		row := ProfileBench{Kernel: names[i], Workers: workers, Runs: runs,
			Sites: len(all.Sites), WaitNS: int64(all.TotalWait()) / int64(runs)}
		whole := all.TotalWaitSketch()
		row.P50NS = int64(whole.Quantile(0.50))
		row.P99NS = int64(whole.Quantile(0.99))
		if half := len(ln.profiles) / 2; half > 0 {
			first, err := profile.Merge(ln.profiles[:half]...)
			if err != nil {
				return nil, err
			}
			second, err := profile.Merge(ln.profiles[half:]...)
			if err != nil {
				return nil, err
			}
			row.FirstP99NS = int64(first.TotalWaitSketch().Quantile(0.99))
			row.SecondP99NS = int64(second.TotalWaitSketch().Quantile(0.99))
		}
		var top *profile.SiteProfile
		for j := range all.Sites {
			if top == nil || all.Sites[j].Wait.SumNS > top.Wait.SumNS {
				top = &all.Sites[j]
			}
		}
		if top != nil {
			row.TopSite, row.TopKind = top.Site, top.Kind
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// TableH prints the per-kernel sync-wait profile rollup: wait per run,
// merged p50/p99, the first-half vs second-half p99 trend, and the most
// expensive site.
func TableH(w io.Writer, rep *ProfileBenchReport) {
	fmt.Fprintf(w, "Table H: per-kernel sync-wait profile rollup (P=%d, %d interleaved runs)\n",
		rep.Workers, rep.Runs)
	fmt.Fprintf(w, "%-14s %6s %12s %10s %10s %10s %10s  %s\n",
		"program", "sites", "wait/run", "p50", "p99", "p99(1st)", "p99(2nd)", "top site")
	for _, r := range rep.Rows {
		top := "-"
		if r.TopSite > 0 {
			top = fmt.Sprintf("%d (%s)", r.TopSite, r.TopKind)
		}
		fmt.Fprintf(w, "%-14s %6d %12s %10s %10s %10s %10s  %s\n",
			r.Kernel, r.Sites,
			time.Duration(r.WaitNS).Round(time.Microsecond),
			time.Duration(r.P50NS).Round(100*time.Nanosecond),
			time.Duration(r.P99NS).Round(100*time.Nanosecond),
			time.Duration(r.FirstP99NS).Round(100*time.Nanosecond),
			time.Duration(r.SecondP99NS).Round(100*time.Nanosecond),
			top)
	}
}
