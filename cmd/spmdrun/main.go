// Command spmdrun executes a DSL program (file or named suite kernel) on
// the SPMD runtime, in baseline fork-join or optimized form, printing the
// dynamic synchronization counts the paper's tables are built from and
// verifying the parallel result against the sequential interpreter.
//
// The run is bound to a signal-cancelled context: Ctrl-C (or SIGTERM, or
// the -timeout deadline) tears the worker team down through the watchdog
// failure latch and the process exits with a cancellation error instead
// of hanging in a half-finished barrier episode.
//
// stdout carries only the machine-parseable result — `key: value` lines
// plus, with -report, the ranked sync-report table; or with -json a single
// versioned envelope (schema_version/tool/payload) that embeds the report;
// diagnostics (per-site stats, sanitizer report, trace summary) go to
// stderr. docs/INTERNALS.md §9 documents every flag.
//
// With -report the run records sync events (tracing is forced on) and the
// static optimization remarks are joined with the per-site runtime wait
// attribution into the ranked "cost of kept barriers" table: one row per
// kept sync site — static reason and position and FM verdict × dynamic
// operation count × p50/p99 wait. docs/REMARKS.md documents the format.
//
// Usage:
//
//	spmdrun -kernel jacobi2d -p 8
//	spmdrun -kernel jacobi2d -p 8 -report [-json]
//	spmdrun -kernel jacobi2d -p 8 -trace out.json -trace-summary
//	spmdrun -kernel dotchain -p 4 -profile-out prof.json
//	spmdrun -kernel dotchain -p 4 -profile-in prof.json -json
//	spmdrun -p 4 -mode base -param N=256 -param T=10 prog.dsl
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/exec"
	"repro/internal/fdo"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/remarks"
	"repro/internal/spmdrt"
	"repro/internal/suite"
	"repro/internal/synctrace"
	"repro/internal/telemetry"
)

type paramList map[string]int64

func (p paramList) String() string { return fmt.Sprint(map[string]int64(p)) }

func (p paramList) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want NAME=VALUE, got %q", s)
	}
	v, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return err
	}
	p[name] = v
	return nil
}

// runPayload is the -json result, wrapped in the spmdrun envelope. The
// field set is deliberately flat and stable: scripts key on it.
type runPayload struct {
	Program string `json:"program"`
	// TraceID joins this envelope with the span export (-spans), the
	// ledger record, and the debug server's /runs and /spans endpoints.
	TraceID string `json:"trace_id,omitempty"`
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	Barrier string `json:"barrier"`
	Backend string `json:"backend"`
	// ElapsedNS is the execution leg; WallNS (spans enabled only) is the
	// whole request, lint through verify — the root span's duration.
	ElapsedNS int64   `json:"elapsed_ns"`
	WallNS    int64   `json:"wall_ns,omitempty"`
	Checksum  float64 `json:"checksum"`
	Sync      struct {
		Barriers      int64 `json:"barriers"`
		CounterIncrs  int64 `json:"counter_incrs"`
		CounterWaits  int64 `json:"counter_waits"`
		NeighborWaits int64 `json:"neighbor_waits"`
		Dispatches    int64 `json:"dispatches"`
	} `json:"sync"`
	Certified bool `json:"certified"`
	// Pooled/TeamGeneration describe the team the run executed on;
	// Attempts and SeqFallback are the retry policy's outcome.
	Pooled         bool     `json:"pooled"`
	TeamGeneration int64    `json:"team_generation,omitempty"`
	Attempts       int      `json:"attempts,omitempty"`
	SeqFallback    bool     `json:"seq_fallback,omitempty"`
	Violations     int      `json:"violations,omitempty"`
	VerifyDiff     *float64 `json:"verify_max_abs_diff,omitempty"`
	SanitizerClean *bool    `json:"sanitizer_clean,omitempty"`
	// TracingForced reports that tracing was auto-enabled (by -report,
	// -profile-out, -ledger or -profile-in) rather than requested.
	TracingForced bool `json:"tracing_forced,omitempty"`
	// FDO is the feedback pass's decision log (only with -profile-in).
	FDO *fdo.Result `json:"fdo,omitempty"`
	// Inspector holds per-site runtime inspector statistics, keyed by the
	// 1-based sync-site id (only on schedules with inspector sites).
	Inspector map[int]exec.InspectorSite `json:"inspector,omitempty"`
	// Report is the static↔runtime sync report (only with -report).
	Report *remarks.Report `json:"report,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges cut off (args, stdout, stderr, exit
// status), so tests can execute full command lines in-process and assert
// on the stdout contract.
func run(args []string, stdout, stderr io.Writer) int {
	params := paramList{}
	fs := flag.NewFlagSet("spmdrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kernel  = fs.String("kernel", "", "run a named suite kernel")
		workers = fs.Int("p", 8, "number of workers")
		mode    = fs.String("mode", "opt", "base (fork-join) or opt (SPMD)")
		barrier = fs.String("barrier", "central", "barrier implementation: central, tree, dissemination, or auto (adopt the -profile-in recommendation)")
		verify  = fs.Bool("verify", true, "compare against the sequential interpreter")
		det     = fs.Bool("det", false, "deterministic (rank-ordered) reduction merges")
		jsonOut = fs.Bool("json", false, "print the result as a versioned JSON envelope on stdout")
		report  = fs.Bool("report", false, "join static remarks with runtime per-site waits; print the ranked kept-barrier cost table (forces tracing)")
		timeout = fs.Duration("timeout", 0, "cancel the run after this long (0 disables); cancellation tears the team down cleanly")

		poolOn   = fs.Bool("pool", true, "check the worker team out of the persistent team pool (disable for a cold spawn per run)")
		deadline = fs.Duration("deadline", 0, "per-attempt run deadline under the retry policy (0 disables; pairs with -retries)")
		retries  = fs.Int("retries", 0, "retry transient failures (watchdog stall, attempt-deadline expiry on a certified schedule) up to this many times with exponential backoff")
		seqFall  = fs.Bool("seq-fallback", false, "after retries are exhausted, degrade to the sequential executor instead of failing")

		watchdog   = fs.Duration("watchdog", 0, "stall deadline; a worker blocked this long aborts the run with a per-worker deadlock report (0 disables)")
		chaos      = fs.Int64("chaos-seed", 0, "enable deterministic chaos injection with this seed (0 disables)")
		chaosStall = fs.Duration("chaos-stall", 0, "with -chaos-seed, arm the rare long-stall chaos fault with this sleep (pairs with -watchdog and -retries to exercise the retry path)")
		sanitize   = fs.Bool("sanitize", false, "run the schedule-soundness sanitizer and report unordered cross-worker flows")
		sabotage   = fs.Int("sabotage", 0, "drop the sync edge with this 1-based site number (testing aid; makes the schedule unsound)")

		traceOut = fs.String("trace", "", "record sync events and write a Chrome trace-event JSON file (view in ui.perfetto.dev)")
		traceSum = fs.Bool("trace-summary", false, "record sync events and print per-site wait/imbalance summary to stderr")
		traceCap = fs.Int("trace-buf", 0, "per-worker trace ring capacity in events (0 = default 65536; oldest events drop when full)")

		profileOut  = fs.String("profile-out", "", "write the run's durable sync profile as an envelope-wrapped JSON file (forces tracing; merge/diff with spmdprof)")
		profileIn   = fs.String("profile-in", "", "feed a prior run's profile (from -profile-out) back through the feedback-directed optimizer; the run executes the re-optimized schedule")
		ledgerPath  = fs.String("ledger", "", "append one envelope-wrapped record (profile + compile costs + result metadata) to this run-ledger file (forces tracing)")
		spansOut    = fs.String("spans", "", "record run-lifecycle spans (lint/compile/certify/pool lease/execute/...) and write them as an envelope-wrapped JSON file")
		metricsAddr = fs.String("metrics-addr", "", "serve the debug endpoints on this address: /metrics (Prometheus text exposition), /healthz, /runs, /spans/<trace-id>, /debug/vars")
		linger      = fs.Duration("metrics-linger", 0, "with -metrics-addr, keep the debug listener up this long after the run finishes (scrape window for one-shot invocations)")
	)
	fs.Var(params, "param", "program parameter NAME=VALUE (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "spmdrun:", err)
		return 1
	}
	startWall := time.Now()

	// Ctrl-C / SIGTERM cancel the run context; the executor routes the
	// cancellation through the team's failure latch so blocked workers
	// unwind instead of deadlocking the exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var src string
	if *kernel != "" {
		k, err := suite.Get(*kernel)
		if err != nil {
			ik, ierr := suite.GetIrregular(*kernel)
			if ierr != nil {
				return fail(err)
			}
			k = ik
		}
		src = k.Source
		for n, v := range k.Params {
			if _, set := params[n]; !set {
				params[n] = v
			}
		}
	} else {
		if len(fs.Args()) != 1 {
			return fail(fmt.Errorf("usage: spmdrun [flags] <file.dsl> (or -kernel NAME)"))
		}
		b, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		src = string(b)
	}

	// From here on the flags are one typed Request; core.Do owns the
	// exec.Config assembly (including the tracing forced by -report,
	// -profile-out and -ledger, which need the trace's wait sketches).
	req := core.NewRequest(src, core.WithParams(params), core.WithWorkers(*workers))
	if *barrier == "auto" {
		// Adopt the feedback pass's recommendation when -profile-in
		// produced one; central otherwise.
		req.Run.BarrierAuto = true
	} else if kind, ok := spmdrt.ParseBarrierKind(*barrier); ok {
		req.Run.Barrier = kind
	} else {
		return fail(fmt.Errorf("unknown barrier %q", *barrier))
	}
	switch *mode {
	case "base":
		req.Run.Baseline = true
	case "opt":
	default:
		return fail(fmt.Errorf("unknown mode %q (want base or opt)", *mode))
	}
	if *profileIn != "" {
		prior, err := profile.Load(*profileIn)
		if err != nil {
			return fail(err)
		}
		core.WithFDOProfile(prior, fdo.Options{})(&req)
	}
	req.Run.Det = *det
	req.Run.Watchdog = *watchdog
	req.Run.ChaosSeed = *chaos
	req.Run.ChaosStall = *chaosStall
	req.Run.Sabotage = *sabotage
	req.Run.Sanitize = *sanitize
	req.Run.Trace = *traceOut != "" || *traceSum
	req.Run.TraceBufCap = *traceCap
	req.Run.NoPool = !*poolOn
	req.Run.Report = *report
	req.Run.Profile = *profileOut != "" || *ledgerPath != "" || *metricsAddr != ""
	req.Run.Spans = *spansOut != "" || *metricsAddr != ""
	if *deadline > 0 || *retries > 0 || *seqFall {
		// core stamps Certified from the memoized certify verdict, so
		// hangs retry only on schedules proved deadlock-free.
		req.Run.Policy = &exec.RunPolicy{Deadline: *deadline, MaxRetries: *retries,
			SequentialFallback: *seqFall}
	}

	if *metricsAddr != "" {
		srv, err := metrics.Serve(*metricsAddr)
		if err != nil {
			return fail(err)
		}
		// Graceful teardown: a scrape racing process exit drains instead
		// of getting its connection cut mid-response.
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
		}()
		fmt.Fprintf(stderr, "metrics:  serving http://%s/metrics (also /healthz, /runs, /spans/<trace-id>)\n", srv.Addr())
	}

	res, err := core.Do(ctx, req)
	if err != nil {
		return fail(err)
	}
	runner := res.Runner
	c := runner.Compiled()
	bkName := runner.BarrierName()
	if res.FDO != nil {
		fmt.Fprintf(stderr, "fdo:      %d flip(s), predicted save %s/run", res.FDO.Flips,
			time.Duration(res.FDO.PredictedSaveNS))
		if res.FDO.BarrierAlgo != "" {
			fmt.Fprintf(stderr, ", recommend %s barrier", res.FDO.BarrierAlgo)
			if req.Run.BarrierAuto {
				fmt.Fprint(stderr, " (adopted)")
			}
		}
		fmt.Fprintln(stderr)
	}
	if res.TracingForced {
		why := "-report"
		switch {
		case *profileOut != "":
			why = "-profile-out"
		case *ledgerPath != "":
			why = "-ledger"
		case *metricsAddr != "":
			why = "-metrics-addr"
		case *profileIn != "":
			why = "-profile-in"
		}
		fmt.Fprintf(stderr, "spmdrun: tracing auto-enabled by %s (sync events recorded this run)\n", why)
	}

	pay := runPayload{
		Program:   c.Prog.Name,
		Mode:      *mode,
		Workers:   *workers,
		Barrier:   bkName,
		Backend:   exec.EngineName,
		ElapsedNS: res.Elapsed.Nanoseconds(),
		Checksum:  res.State.Checksum(),
		Certified: res.Certify.Certified,
	}
	pay.Pooled = res.Pooled
	pay.TeamGeneration = res.Generation
	pay.Attempts = res.Attempts
	pay.SeqFallback = res.SeqFallback
	pay.Sync.Barriers = res.Stats.Barriers
	pay.Sync.CounterIncrs = res.Stats.CounterIncrs
	pay.Sync.CounterWaits = res.Stats.CounterWaits
	pay.Sync.NeighborWaits = res.Stats.NeighborWaits
	pay.Sync.Dispatches = res.Stats.Dispatches
	pay.Violations = len(res.Certify.Violations)
	pay.Inspector = res.Inspector
	pay.TracingForced = res.TracingForced
	pay.FDO = res.FDO
	pay.Report = res.Report

	if !*jsonOut {
		fmt.Fprintf(stdout, "program %s  mode=%s  P=%d  barrier=%s  backend=%s\n",
			c.Prog.Name, *mode, *workers, bkName, exec.EngineName)
		if res.FDO != nil {
			fmt.Fprintf(stdout, "fdo:      %d flip(s), predicted save %s/run\n",
				res.FDO.Flips, time.Duration(res.FDO.PredictedSaveNS))
		}
		fmt.Fprintf(stdout, "elapsed:  %s\n", res.Elapsed)
		team := "cold-spawn"
		switch {
		case res.SeqFallback:
			team = fmt.Sprintf("sequential fallback after %d attempts", res.Attempts)
		case res.Pooled:
			team = fmt.Sprintf("pooled (gen %d)", res.Generation)
		}
		if res.Attempts > 1 && !res.SeqFallback {
			team += fmt.Sprintf(", attempt %d", res.Attempts)
		}
		fmt.Fprintf(stdout, "team:     %s\n", team)
		fmt.Fprintf(stdout, "sync:     %s\n", res.Stats)
		if len(res.Inspector) > 0 {
			var scans, empty, waits, consrv int64
			for _, is := range res.Inspector {
				scans += is.Scans
				empty += is.EmptyCrossings
				waits += is.WaitCrossings
				consrv += is.Conservative
			}
			fmt.Fprintf(stdout, "inspector: %d site(s), scans=%d empty=%d waits=%d conservative=%d\n",
				len(res.Inspector), scans, empty, waits, consrv)
		}
		fmt.Fprintf(stdout, "checksum: %.10g\n", res.State.Checksum())
		fmt.Fprintf(stdout, "certified: %v\n", res.Certify.Certified)
	}

	// Diagnostics go to stderr so stdout stays machine-parseable.
	if ps := res.Stats.PerSiteString(); ps != "" {
		fmt.Fprintln(stderr, "per-site dynamic sync counts:")
		fmt.Fprintln(stderr, indent(ps))
	}
	if len(res.Inspector) > 0 {
		ids := make([]int, 0, len(res.Inspector))
		for id := range res.Inspector {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Fprintln(stderr, "per-site inspector stats (scan time and visits: worker 0's own rows):")
		for _, id := range ids {
			is := res.Inspector[id]
			fmt.Fprintf(stderr, "  site %d: scans=%d conflicts=%d empty=%d waits=%d conservative=%d scan=%s visits=%d\n",
				id, is.Scans, is.Conflicts, is.EmptyCrossings, is.WaitCrossings, is.Conservative,
				time.Duration(is.ScanNS), is.ScanVisits)
		}
	}
	if res.Sanitizer != nil {
		fmt.Fprintln(stderr, res.Sanitizer)
		clean := res.Sanitizer.Clean()
		pay.SanitizerClean = &clean
	}
	if *traceSum {
		fmt.Fprintln(stderr, synctrace.Summarize(res.Trace))
	}

	// Verify computes its verdict before the profile/ledger emission so a
	// FAIL still lands in the ledger record; the failure exit follows.
	// core.Do leaves the root span open so the verify leg counts toward
	// the trace's wall time (tr is nil when spans are off).
	tr := res.Telemetry
	verdict := ""
	var verifyErr error
	if *verify {
		verifySp := tr.Start(0, "verify")
		ref, err := c.RunSequential(params)
		if err != nil {
			tr.Finish()
			return fail(err)
		}
		d := exec.ComparableDiff(ref, res.State, c.Prog)
		pay.VerifyDiff = &d
		if !*jsonOut {
			fmt.Fprintf(stdout, "verify:   max |parallel - sequential| = %g\n", d)
		}
		if d > 1e-9 {
			verdict = "FAIL"
			verifyErr = fmt.Errorf("parallel execution diverged from sequential semantics")
		} else {
			verdict = "PASS"
		}
		tr.SetAttr(verifySp, "verdict", verdict)
		tr.End(verifySp)
	}
	tr.Finish()
	export := tr.Export()
	pay.TraceID = res.TraceID
	pay.WallNS = tr.WallNS()

	// The Chrome trace is written after Finish so the lifecycle track
	// (span layer interleaved with per-worker sync events) has no open
	// spans with dangling durations.
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		if tr != nil {
			err = tr.WriteChromeTrace(f, res.Trace)
		} else {
			err = res.Trace.WriteChromeTrace(f)
		}
		if err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "trace:    %d events -> %s (load in ui.perfetto.dev)\n",
			res.Trace.Recorded(), *traceOut)
	}
	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		if err != nil {
			return fail(err)
		}
		if err := envelope.Write(f, envelope.ToolSpans, export); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "spans:    %d span(s), trace %s -> %s\n",
			len(export.Spans), export.TraceID, *spansOut)
	}
	if res.Profile != nil {
		prof := res.Profile
		if *profileOut != "" {
			if err := profile.WriteFile(*profileOut, prof); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "profile:  %d site(s) -> %s\n", len(prof.Sites), *profileOut)
		}
		if *ledgerPath != "" {
			rec := runner.LedgerRecord(res, verdict, time.Now())
			rec.Profile = prof
			if err := profile.AppendLedger(*ledgerPath, rec); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "ledger:   1 record appended -> %s\n", *ledgerPath)
		}
	}
	if *metricsAddr != "" {
		// Feed the debug server's aggregator: counters, the group's
		// latency/wait rollups, and the /runs + /spans ring.
		sum := telemetry.RunSummary{
			TraceID: res.TraceID, Program: c.Prog.Name, Mode: *mode,
			Workers: *workers, Backend: exec.EngineName, Barrier: bkName,
			StartUnixNS: startWall.UnixNano(),
			WallNS:      pay.WallNS, ElapsedNS: res.Elapsed.Nanoseconds(),
			Outcome:  telemetry.OutcomeOK,
			Attempts: res.Attempts, SeqFallback: res.SeqFallback, Pooled: res.Pooled,
		}
		if verifyErr != nil {
			sum.Outcome = telemetry.OutcomeError
			sum.Error = verifyErr.Error()
		}
		telemetry.Default().Observe(sum, res.Profile, export)
	}
	if verifyErr != nil {
		return fail(verifyErr)
	}
	if *report && !*jsonOut {
		// The report is part of the requested result, not a diagnostic:
		// it goes to stdout, after the key:value block.
		fmt.Fprint(stdout, pay.Report.Render())
	}
	if *jsonOut {
		if err := envelope.Write(stdout, envelope.ToolRun, pay); err != nil {
			return fail(err)
		}
	}
	if res.Sanitizer != nil && !res.Sanitizer.Clean() {
		return fail(fmt.Errorf("sanitizer found unordered cross-worker flows"))
	}
	// The linger comes last so every artifact (envelope included) is
	// already flushed while the debug listener stays up for scrapes.
	if *metricsAddr != "" && *linger > 0 {
		fmt.Fprintf(stderr, "metrics:  lingering %s for scrapes\n", *linger)
		select {
		case <-ctx.Done():
		case <-time.After(*linger):
		}
	}
	return 0
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
