// The typed request/response facade: one Request value describes an
// entire compile-and-run — source, compile-time choices, run-time
// configuration — and one Do call executes it. The CLIs construct a
// Request from their flags instead of poking exec.Config fields by hand;
// exec.Config remains the executor's internal configuration surface and
// is assembled here, in exactly one place.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/fdo"
	"repro/internal/lint"
	"repro/internal/profile"
	"repro/internal/spmdrt"
	"repro/internal/telemetry"
)

// CompileOptions are a Request's compile-time choices.
type CompileOptions struct {
	// Lint runs the source linter first; findings abort with *LintError.
	Lint bool
	// Certify requires the schedule the run will execute to pass the
	// independent static certifier; Do fails with *CertifyError otherwise.
	Certify bool
	// FDOProfile, when set, feeds a prior run's measured profile back
	// through the feedback-directed optimizer: the run executes the
	// re-optimized schedule and Result.FDO records the decisions. The
	// profile must match this compilation's identity hashes
	// (profile.ErrHashMismatch otherwise).
	FDOProfile *profile.Profile
}

// RunOptions are a Request's run-time configuration.
type RunOptions struct {
	// P is the worker count (default 8).
	P int
	// Baseline runs the fork-join baseline schedule instead of the
	// optimized one.
	Baseline bool
	// Barrier selects the barrier implementation (default Central).
	Barrier spmdrt.BarrierKind
	// Params are the program parameters.
	Params map[string]int64
	// Trace records sync events. Profile and Report need the trace's wait
	// sketches, so either forces tracing; Result.TracingForced reports
	// when that happened.
	Trace bool
	// TraceBufCap overrides the per-worker trace ring capacity.
	TraceBufCap int
	// Profile assembles the run's durable sync profile into
	// Result.Profile (forces tracing).
	Profile bool
	// Report joins static remarks with runtime waits into Result.Report
	// (forces tracing).
	Report bool
	// Sanitize runs the schedule-soundness sanitizer.
	Sanitize bool
	// Watchdog aborts the run when a worker blocks this long (0 disables).
	Watchdog time.Duration
	// ChaosSeed enables deterministic chaos injection (0 disables).
	ChaosSeed int64
	// Sabotage drops the sync edge with this 1-based site id (testing aid).
	Sabotage int
	// Spans collects run-lifecycle spans — one per phase (lint, compile,
	// FDO, certify, execute with the executor's lease and team-run children,
	// profile, report) — into Result.Telemetry. Result.TraceID is stamped
	// whether or not spans are collected.
	Spans bool
}

// Request is one complete compile-and-run description.
type Request struct {
	// Source is the DSL program text.
	Source  string
	Compile CompileOptions
	Run     RunOptions
}

// RequestOption mutates a Request under construction (NewRequest).
type RequestOption func(*Request)

// NewRequest builds a Request for src with functional options applied in
// order. The zero Request (opt schedule, 8 workers, central barrier) is
// valid without any options.
func NewRequest(src string, opts ...RequestOption) Request {
	r := Request{Source: src}
	for _, o := range opts {
		o(&r)
	}
	return r
}

// WithLint enables the pre-compile source linter.
func WithLint() RequestOption { return func(r *Request) { r.Compile.Lint = true } }

// WithCertify requires the executed schedule to pass the certifier.
func WithCertify() RequestOption { return func(r *Request) { r.Compile.Certify = true } }

// WithFDOProfile feeds a prior run's profile back through the
// feedback-directed optimizer.
func WithFDOProfile(p *profile.Profile) RequestOption {
	return func(r *Request) { r.Compile.FDOProfile = p }
}

// WithWorkers sets the worker count.
func WithWorkers(p int) RequestOption { return func(r *Request) { r.Run.P = p } }

// WithParams sets the program parameters.
func WithParams(params map[string]int64) RequestOption {
	return func(r *Request) { r.Run.Params = params }
}

// WithTrace records sync events.
func WithTrace() RequestOption { return func(r *Request) { r.Run.Trace = true } }

// WithReport builds the static×runtime sync report (forces tracing).
func WithReport() RequestOption { return func(r *Request) { r.Run.Report = true } }

// WithSpans collects run-lifecycle spans into Result.Telemetry.
func WithSpans() RequestOption { return func(r *Request) { r.Run.Spans = true } }

// CertifyError reports that Compile.Certify was set and the schedule the
// run would execute failed certification.
type CertifyError struct {
	Verdict Verdict
}

func (e *CertifyError) Error() string {
	if e.Verdict.Err != nil {
		return fmt.Sprintf("core: certifier failed: %v", e.Verdict.Err)
	}
	return fmt.Sprintf("core: schedule not certified: %d unordered flow(s)", len(e.Verdict.Violations))
}

// Do executes one Request end to end: lint (optional), compile, feedback
// re-optimization (when Compile.FDOProfile is set), certification gate
// (when Compile.Certify is set), and the run itself. The returned Result
// carries everything the request asked for — the run result and verdict as
// always, plus Profile/Report/FDO/TracingForced — and Result.Runner for
// callers that need further runs or the ledger assembly.
func Do(ctx context.Context, req Request) (*Result, error) {
	// The lifecycle trace: one span per phase, all children of the root
	// "run" span. tr stays nil unless Run.Spans — every telemetry method
	// is nil-safe, so the disabled path costs one pointer check per phase.
	var tr *telemetry.Trace
	if req.Run.Spans {
		tr = telemetry.NewTrace()
	}

	if req.Compile.Lint {
		sp := tr.Start(0, "lint")
		diags := lint.Source(req.Source)
		tr.End(sp)
		if lint.HasFindings(diags) {
			tr.Finish()
			return nil, &LintError{Diags: diags}
		}
	}

	compileStart := time.Now()
	compileSp := tr.Start(0, "compile")
	c, err := Compile(req.Source, Options{})
	tr.End(compileSp)
	if err != nil {
		tr.Finish()
		return nil, err
	}
	if tr != nil {
		tr.SetProgram(c.Prog.Name)
		// Compile sub-phases re-tile the compile span from the phase
		// clock's own measurements; solver totals ride as attributes.
		off := compileStart
		for _, ph := range c.Costs.Phases {
			id := tr.Add(compileSp, ph.Name, off, ph.Wall)
			if ph.FMSystems > 0 {
				tr.SetAttr(id, "fm_systems", fmt.Sprint(ph.FMSystems))
			}
			off = off.Add(ph.Wall)
		}
		tr.SetAttr(compileSp, "fm_systems", fmt.Sprint(c.Costs.FMSystems))
		tr.SetAttr(compileSp, "vars_eliminated", fmt.Sprint(c.Costs.VarsEliminated))
		tr.SetAttr(compileSp, "ineqs_generated", fmt.Sprint(c.Costs.IneqsGenerated))
	}

	var fres *fdo.Result
	if req.Compile.FDOProfile != nil {
		if req.Run.Baseline {
			tr.Finish()
			return nil, fmt.Errorf("core: feedback re-optimization applies to the optimized schedule, not the fork-join baseline")
		}
		sp := tr.Start(0, "fdo")
		c, fres, err = c.Reoptimize(req.Compile.FDOProfile)
		tr.End(sp)
		if err != nil {
			tr.Finish()
			return nil, err
		}
	}

	// A feedback-driven run also traces: the re-optimized schedule must
	// measure itself so the loop can iterate (profile the FDO run, feed
	// it back again) and so wait-vs-wait comparisons against the static
	// leg see identical instrumentation.
	tracingForced := !req.Run.Trace &&
		(req.Run.Profile || req.Run.Report || req.Compile.FDOProfile != nil)
	workers := req.Run.P
	if workers == 0 {
		workers = 8
	}
	// The execute span opens before runner construction so the executor's
	// spans know their parent at Config-assembly time.
	execSp := tr.Start(0, "execute")
	// A profile, a report and a feedback pass read the schedule's waits at
	// P workers, so they run at all P (exec.Config.FixedWidth).
	cfg := exec.Config{
		FixedWidth:      req.Run.Profile || req.Run.Report || req.Compile.FDOProfile != nil,
		Workers:         workers,
		Barrier:         req.Run.Barrier,
		Params:          req.Run.Params,
		WatchdogTimeout: req.Run.Watchdog,
		ChaosSeed:       req.Run.ChaosSeed,
		SabotageEdge:    req.Run.Sabotage,
		Sanitize:        req.Run.Sanitize,
		Trace:           req.Run.Trace || tracingForced,
		TraceBufCap:     req.Run.TraceBufCap,
		Spans:           tr,
		SpansParent:     execSp,
	}

	// Runner construction covers the memoized closure lowering.
	setupSp := tr.Start(execSp, "setup")
	var runner *Runner
	if req.Run.Baseline {
		runner, err = c.NewBaselineRunner(cfg)
	} else {
		runner, err = c.NewRunner(cfg)
	}
	tr.End(setupSp)
	if err != nil {
		tr.End(execSp)
		tr.Finish()
		return nil, err
	}

	if req.Compile.Certify {
		sp := tr.Start(execSp, "certify")
		v := c.verdictOf(runner.sched)
		tr.End(sp)
		if tr != nil {
			tr.SetAttr(sp, "certified", fmt.Sprint(v.Certified))
		}
		if !v.Certified {
			tr.End(execSp)
			tr.Finish()
			return nil, &CertifyError{Verdict: v}
		}
	}

	res, err := runner.RunContext(ctx)
	tr.End(execSp)
	if err != nil {
		tr.Finish()
		return nil, err
	}
	if tr != nil {
		// exec.Result outcome fields ride on the execute span.
		tr.SetAttr(execSp, "elapsed_ns", fmt.Sprint(res.Elapsed.Nanoseconds()))
		tr.SetAttr(execSp, "workers", fmt.Sprint(workers))
		tr.SetAttr(execSp, "width", fmt.Sprint(runner.Width()))
	}
	res.Runner = runner
	res.FDO = fres
	res.TracingForced = tracingForced
	res.Telemetry = tr
	res.TraceID = tr.ID()
	if res.TraceID == "" {
		res.TraceID = telemetry.NewTraceID()
	}
	if req.Run.Profile {
		sp := tr.Start(0, "profile")
		res.Profile = runner.Profile(res)
		tr.End(sp)
	}
	if req.Run.Report {
		sp := tr.Start(0, "report")
		res.Report = runner.SyncReport(res)
		tr.End(sp)
	}
	return res, nil
}
