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
	"repro/internal/profile"
	"repro/internal/remarks"
	"repro/internal/spmdrt"
	"repro/internal/suite"
	"repro/internal/synctrace"
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
	// TraceID joins this envelope with the span export (-spans) and the
	// ledger record.
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
	Certified      bool     `json:"certified"`
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

// options holds the parsed flags; docs/INTERNALS.md §9 documents each.
type options struct {
	kernel  string
	workers int
	mode    string
	barrier string
	verify  bool
	jsonOut bool
	report  bool
	timeout time.Duration

	watchdog time.Duration
	chaos    int64
	sanitize bool
	sabotage int

	traceOut string
	traceSum bool
	traceCap int

	profileOut string
	profileIn  string
	ledgerPath string
	spansOut   string
	params     paramList
}

func newFlagSet(stderr io.Writer) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("spmdrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{params: paramList{}}
	fs.StringVar(&o.kernel, "kernel", "", "run a named suite kernel")
	fs.IntVar(&o.workers, "p", 8, "number of workers")
	fs.StringVar(&o.mode, "mode", "opt", "base (fork-join) or opt (SPMD)")
	fs.StringVar(&o.barrier, "barrier", "central", "barrier implementation: central, tree, dissemination, or auto (adopt the -profile-in recommendation)")
	fs.BoolVar(&o.verify, "verify", true, "compare against the sequential interpreter")
	fs.BoolVar(&o.jsonOut, "json", false, "print the result as a versioned JSON envelope on stdout")
	fs.BoolVar(&o.report, "report", false, "join static remarks with runtime per-site waits; print the ranked kept-barrier cost table (forces tracing)")
	fs.DurationVar(&o.timeout, "timeout", 0, "cancel the run after this long (0 disables); cancellation tears the team down cleanly")

	fs.DurationVar(&o.watchdog, "watchdog", 0, "stall deadline; a worker blocked this long aborts the run with a per-worker deadlock report (0 disables)")
	fs.Int64Var(&o.chaos, "chaos-seed", 0, "enable deterministic chaos injection with this seed (0 disables)")
	fs.BoolVar(&o.sanitize, "sanitize", false, "run the schedule-soundness sanitizer and report unordered cross-worker flows")
	fs.IntVar(&o.sabotage, "sabotage", 0, "drop the sync edge with this 1-based site number (testing aid; makes the schedule unsound)")

	fs.StringVar(&o.traceOut, "trace", "", "record sync events and write a Chrome trace-event JSON file (view in ui.perfetto.dev)")
	fs.BoolVar(&o.traceSum, "trace-summary", false, "record sync events and print per-site wait/imbalance summary to stderr")
	fs.IntVar(&o.traceCap, "trace-buf", 0, "per-worker trace ring capacity in events (0 = default 65536; oldest events drop when full)")

	fs.StringVar(&o.profileOut, "profile-out", "", "write the run's durable sync profile as an envelope-wrapped JSON file (forces tracing; merge/diff with spmdprof)")
	fs.StringVar(&o.profileIn, "profile-in", "", "feed a prior run's profile (from -profile-out) back through the feedback-directed optimizer; the run executes the re-optimized schedule")
	fs.StringVar(&o.ledgerPath, "ledger", "", "append one envelope-wrapped record (profile + compile costs + result metadata) to this run-ledger file (forces tracing)")
	fs.StringVar(&o.spansOut, "spans", "", "record run-lifecycle spans (lint/compile/certify/pool lease/execute/...) and write them as an envelope-wrapped JSON file")
	fs.Var(o.params, "param", "program parameter NAME=VALUE (repeatable)")
	return fs, o
}

// run is main with the process edges cut off (args, stdout, stderr, exit
// status), so tests can execute full command lines in-process and assert
// on the stdout contract.
func run(args []string, stdout, stderr io.Writer) int {
	fs, o := newFlagSet(stderr)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	params := o.params
	fail := func(err error) int {
		fmt.Fprintln(stderr, "spmdrun:", err)
		return 1
	}

	// Ctrl-C / SIGTERM cancel the run context; the executor routes the
	// cancellation through the team's failure latch so blocked workers
	// unwind instead of deadlocking the exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	var src string
	if o.kernel != "" {
		k, err := suite.Get(o.kernel)
		if err != nil {
			ik, ierr := suite.GetIrregular(o.kernel)
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
	req := core.NewRequest(src, core.WithParams(params), core.WithWorkers(o.workers))
	if o.barrier == "auto" {
		// Adopt the feedback pass's recommendation when -profile-in
		// produced one; central otherwise.
		req.Run.BarrierAuto = true
	} else if kind, ok := spmdrt.ParseBarrierKind(o.barrier); ok {
		req.Run.Barrier = kind
	} else {
		return fail(fmt.Errorf("unknown barrier %q", o.barrier))
	}
	switch o.mode {
	case "base":
		req.Run.Baseline = true
	case "opt":
	default:
		return fail(fmt.Errorf("unknown mode %q (want base or opt)", o.mode))
	}
	if o.profileIn != "" {
		prior, err := profile.ReadFile(o.profileIn)
		if err != nil {
			return fail(err)
		}
		core.WithFDOProfile(prior, fdo.Options{})(&req)
	}
	req.Run.Watchdog = o.watchdog
	req.Run.ChaosSeed = o.chaos
	req.Run.Sabotage = o.sabotage
	req.Run.Sanitize = o.sanitize
	req.Run.Trace = o.traceOut != "" || o.traceSum
	req.Run.TraceBufCap = o.traceCap
	req.Run.Report = o.report
	req.Run.Profile = o.profileOut != "" || o.ledgerPath != ""
	req.Run.Spans = o.spansOut != ""

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
		case o.profileOut != "":
			why = "-profile-out"
		case o.ledgerPath != "":
			why = "-ledger"
		case o.profileIn != "":
			why = "-profile-in"
		}
		fmt.Fprintf(stderr, "spmdrun: tracing auto-enabled by %s (sync events recorded this run)\n", why)
	}

	pay := runPayload{
		Program:   c.Prog.Name,
		Mode:      o.mode,
		Workers:   o.workers,
		Barrier:   bkName,
		Backend:   exec.EngineName,
		ElapsedNS: res.Elapsed.Nanoseconds(),
		Checksum:  res.State.Checksum(),
		Certified: res.Certify.Certified,
	}
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

	if !o.jsonOut {
		fmt.Fprintf(stdout, "program %s  mode=%s  P=%d  barrier=%s  backend=%s\n",
			c.Prog.Name, o.mode, o.workers, bkName, exec.EngineName)
		if res.FDO != nil {
			fmt.Fprintf(stdout, "fdo:      %d flip(s), predicted save %s/run\n",
				res.FDO.Flips, time.Duration(res.FDO.PredictedSaveNS))
		}
		fmt.Fprintf(stdout, "elapsed:  %s\n", res.Elapsed)
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
	if o.traceSum {
		fmt.Fprintln(stderr, synctrace.Summarize(res.Trace))
	}

	// Verify computes its verdict before the profile/ledger emission so a
	// FAIL still lands in the ledger record; the failure exit follows.
	// core.Do leaves the root span open so the verify leg counts toward
	// the trace's wall time (tr is nil when spans are off).
	tr := res.Telemetry
	verdict := ""
	var verifyErr error
	if o.verify {
		verifySp := tr.Start(0, "verify")
		ref, err := c.RunSequential(params)
		if err != nil {
			tr.Finish()
			return fail(err)
		}
		d := exec.ComparableDiff(ref, res.State, c.Prog)
		pay.VerifyDiff = &d
		if !o.jsonOut {
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
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return fail(err)
		}
		if err := res.Trace.WriteChromeTrace(f, tr.ChromeSpans(res.Trace)); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "trace:    %d events -> %s (load in ui.perfetto.dev)\n",
			res.Trace.Recorded(), o.traceOut)
	}
	if o.spansOut != "" {
		f, err := os.Create(o.spansOut)
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
			len(export.Spans), export.TraceID, o.spansOut)
	}
	if res.Profile != nil {
		prof := res.Profile
		if o.profileOut != "" {
			if err := profile.WriteFile(o.profileOut, prof); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "profile:  %d site(s) -> %s\n", len(prof.Sites), o.profileOut)
		}
		if o.ledgerPath != "" {
			rec := runner.LedgerRecord(res, verdict, time.Now())
			rec.Profile = prof
			if err := profile.AppendLedger(o.ledgerPath, rec); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "ledger:   1 record appended -> %s\n", o.ledgerPath)
		}
	}
	if verifyErr != nil {
		return fail(verifyErr)
	}
	if o.report && !o.jsonOut {
		// The report is part of the requested result, not a diagnostic:
		// it goes to stdout, after the key:value block.
		fmt.Fprint(stdout, pay.Report.Render())
	}
	if o.jsonOut {
		if err := envelope.Write(stdout, envelope.ToolRun, pay); err != nil {
			return fail(err)
		}
	}
	if res.Sanitizer != nil && !res.Sanitizer.Clean() {
		return fail(fmt.Errorf("sanitizer found unordered cross-worker flows"))
	}
	return 0
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
