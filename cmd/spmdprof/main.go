// Command spmdprof rolls up and compares the durable sync profiles
// spmdrun emits (-profile-out, -ledger): the fleet-side half of the
// profiling layer. Subcommands:
//
//	spmdprof merge [-o out.json] p1.json p2.json ...
//	    Aggregate compatible profiles into one rollup (weighted by run
//	    count; exact — a merge of merges equals the merge of the runs).
//	    Merging a single profile re-emits it byte-identically, which is
//	    the round-trip determinism gate scripts/check.sh relies on.
//
//	spmdprof diff [-rel F] [-abs DUR] [-min-waits N] old.json new.json
//	    Rank per-site p99-wait shifts of new against the old baseline.
//	    Exit 1 when any shift clears both noise bars (a regression),
//	    0 when quiet — the cross-run regression watch.
//
//	spmdprof top [-n N] profile.json
//	    The N most expensive sites by total blocking wait.
//
//	spmdprof ledger [-watch] [-rel F] [-abs DUR] [-min-waits N] ledger.jsonl
//	    Summarize an append-only run ledger per (program, schedule,
//	    config) group. With -watch, diff each group's latest run against
//	    the merged history before it; exit 1 on any regression.
//
// stdout carries the requested artifact (merged envelope, diff table,
// rankings); diagnostics go to stderr. Exit codes: 0 ok/quiet, 1
// regression found or operational error, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/profile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges cut off so tests can drive full
// command lines in-process.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "merge":
		return cmdMerge(rest, stdout, stderr)
	case "diff":
		return cmdDiff(rest, stdout, stderr)
	case "top":
		return cmdTop(rest, stdout, stderr)
	case "ledger":
		return cmdLedger(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "spmdprof: unknown subcommand %q\n", cmd)
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  spmdprof merge [-o out.json] p1.json [p2.json ...]
  spmdprof diff [-rel F] [-abs DUR] [-min-waits N] old.json new.json
  spmdprof top [-n N] profile.json
  spmdprof ledger [-watch] [-rel F] [-abs DUR] [-min-waits N] ledger.jsonl
`)
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "spmdprof:", err)
	return 1
}

// diffFlags registers the shared noise-threshold flags.
func diffFlags(fs *flag.FlagSet) (rel *float64, abs *time.Duration, minWaits *int64) {
	rel = fs.Float64("rel", 0, "minimum relative p99 shift to flag (default 0.5 = 50%)")
	abs = fs.Duration("abs", 0, "minimum absolute p99 shift to flag (default 25µs)")
	minWaits = fs.Int64("min-waits", 0, "minimum recorded waits per run for a site to be judged (default 4)")
	return
}

func cmdMerge(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spmdprof merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the merged profile here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "spmdprof merge: need at least one profile file")
		return 2
	}
	ps := make([]*profile.Profile, 0, fs.NArg())
	for _, path := range fs.Args() {
		p, err := profile.ReadFile(path)
		if err != nil {
			return fail(stderr, err)
		}
		ps = append(ps, p)
	}
	m, err := profile.Merge(ps...)
	if err != nil {
		return fail(stderr, err)
	}
	if *out != "" {
		if err := profile.WriteFile(*out, m); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "merged %d profile(s), %d run(s) -> %s\n", len(ps), m.Runs, *out)
		return 0
	}
	b, err := profile.Encode(m)
	if err != nil {
		return fail(stderr, err)
	}
	if _, err := stdout.Write(b); err != nil {
		return fail(stderr, err)
	}
	return 0
}

func cmdDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spmdprof diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rel, abs, minWaits := diffFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "spmdprof diff: need exactly two profile files (old new)")
		return 2
	}
	old, err := profile.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	cand, err := profile.ReadFile(fs.Arg(1))
	if err != nil {
		return fail(stderr, err)
	}
	rep, err := profile.Diff(old, cand, profile.DiffOptions{
		MinRelative: *rel, MinAbsolute: *abs, MinWaits: *minWaits})
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprint(stdout, rep.Render())
	if rep.Regressions > 0 {
		return 1
	}
	return 0
}

func cmdTop(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spmdprof top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 10, "number of sites to show")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "spmdprof top: need exactly one profile file")
		return 2
	}
	p, err := profile.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	sites := append([]profile.SiteProfile(nil), p.Sites...)
	sort.SliceStable(sites, func(i, j int) bool {
		if sites[i].Wait.SumNS != sites[j].Wait.SumNS {
			return sites[i].Wait.SumNS > sites[j].Wait.SumNS
		}
		return sites[i].Site < sites[j].Site
	})
	if *n < len(sites) {
		sites = sites[:*n]
	}
	fmt.Fprintf(stdout, "profile: %s  mode=%s  P=%d  backend=%s  runs=%d  total-wait=%s\n",
		p.Program, p.Mode, p.Workers, p.Backend, p.Runs, p.TotalWait())
	fmt.Fprintf(stdout, "%-5s %-9s %10s %12s %10s %10s %10s  %s\n",
		"site", "kind", "ops/run", "total_wait", "p50", "p99", "max", "straggler")
	for i := range sites {
		sp := &sites[i]
		straggler := "-"
		if w, share, ok := sp.Straggler(); ok {
			straggler = fmt.Sprintf("w%d (last in %.0f%%)", w, share*100)
		} else if sp.Scans > 0 {
			// Inspector sites have no barrier episodes; show the scan
			// outcome in the attribution column instead.
			straggler = fmt.Sprintf("scans=%d empty=%d waits=%d", sp.Scans,
				sp.EmptyCrossings, sp.WaitCrossings)
			if sp.Conservative > 0 {
				straggler += fmt.Sprintf(" conservative=%d", sp.Conservative)
			}
		}
		fmt.Fprintf(stdout, "%-5d %-9s %10d %12s %10s %10s %10s  %s\n",
			sp.Site, sp.Kind, sp.Ops/int64(p.Runs),
			time.Duration(sp.Wait.SumNS), sp.Wait.Quantile(0.50), sp.Wait.Quantile(0.99),
			time.Duration(sp.Wait.MaxNS), straggler)
	}
	return 0
}

func cmdLedger(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spmdprof ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	watch := fs.Bool("watch", false, "diff each group's latest run against its merged prior history; exit 1 on regressions")
	rel, abs, minWaits := diffFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "spmdprof ledger: need exactly one ledger file")
		return 2
	}
	recs, err := profile.ReadLedgerFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	// Group by profile identity, preserving first-seen (≈ chronological)
	// group order and per-group record order.
	groups := map[string][]*profile.LedgerRecord{}
	var order []string
	for _, rec := range recs {
		key := rec.Profile.GroupKey()
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], rec)
	}
	fmt.Fprintf(stdout, "ledger: %d record(s), %d group(s)\n", len(recs), len(order))
	regressions := 0
	for _, key := range order {
		rs := groups[key]
		p0 := rs[0].Profile
		var wallNS, fails int64
		for _, r := range rs {
			wallNS += r.Result.WallNS
			if r.Result.Verdict == "FAIL" {
				fails++
			}
		}
		ps := make([]*profile.Profile, len(rs))
		for i, r := range rs {
			ps[i] = r.Profile
		}
		all, err := profile.Merge(ps...)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "\n%s  mode=%s  P=%d  backend=%s\n", p0.Program, p0.Mode, p0.Workers, p0.Backend)
		fmt.Fprintf(stdout, "  runs=%d fails=%d mean-wall=%s total-wait/run=%s\n",
			all.Runs, fails, time.Duration(wallNS/int64(len(rs))),
			time.Duration(int64(all.TotalWait())/int64(all.Runs)))
		// The trace id joins this ledger row with the run's span export.
		last := rs[len(rs)-1]
		latest := fmt.Sprintf("  latest: verdict=%s wall=%s",
			orDash(last.Result.Verdict), time.Duration(last.Result.WallNS))
		if last.TraceID != "" {
			latest += " trace=" + last.TraceID
		}
		fmt.Fprintln(stdout, latest)
		if !*watch || len(rs) < 2 {
			continue
		}
		// Watch: merged history (all but the latest) vs the latest run.
		hist, err := profile.Merge(ps[:len(ps)-1]...)
		if err != nil {
			return fail(stderr, err)
		}
		rep, err := profile.Diff(hist, ps[len(ps)-1], profile.DiffOptions{
			MinRelative: *rel, MinAbsolute: *abs, MinWaits: *minWaits})
		if err != nil {
			return fail(stderr, err)
		}
		if rep.Regressions == 0 {
			fmt.Fprintf(stdout, "  watch: latest run quiet against %d-run history\n", hist.Runs)
			continue
		}
		regressions += rep.Regressions
		top := rep.TopRegression()
		fmt.Fprintf(stdout, "  watch: %d regression(s); worst site %d (%s) p99 %s -> %s\n",
			rep.Regressions, top.Site, top.Kind, top.OldP99, top.NewP99)
		fmt.Fprint(stdout, indent(rep.Render()))
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "\nwatch: %d regression(s) across the ledger\n", regressions)
		return 1
	}
	return 0
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ") + "\n"
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
