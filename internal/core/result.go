package core

import (
	"context"
	"sync"

	"repro/internal/certify"
	"repro/internal/exec"
	"repro/internal/fdo"
	"repro/internal/profile"
	"repro/internal/remarks"
	"repro/internal/syncopt"
	"repro/internal/telemetry"
)

// Verdict is the static certifier's judgment of one schedule, attached to
// every facade result so callers stop re-running the certifier by hand.
type Verdict struct {
	// Certified reports that the certifier independently proved the
	// schedule sound (no violations, solver and oracle agreed).
	Certified bool
	// Certificate carries the proof artifact when Certified.
	Certificate *certify.Certificate
	// Violations are the unordered flows found, if any.
	Violations []certify.Violation
	// Err reports a certifier failure (solver-oracle disagreement); when
	// set, neither Certificate nor Violations should be trusted.
	Err error
}

// Verdict returns the memoized certify verdict of the optimized schedule's
// SPMD step program.
func (c *Compiled) Verdict() Verdict { return c.verdictOf(c.Schedule) }

// verdictOf returns the memoized certify verdict of the step program s
// lowers to; s is one of this compilation's two schedules.
func (c *Compiled) verdictOf(s *syncopt.Schedule) Verdict {
	i := 0
	if s.Baseline {
		i = 1
	}
	c.verOnce[i].Do(func() {
		cert, viols, err := certify.Certify(c.Prog, ToCertify(s.Lower()), c.CertifyOptions())
		c.verdicts[i] = Verdict{
			Certified:   err == nil && len(viols) == 0 && cert != nil,
			Certificate: cert,
			Violations:  viols,
			Err:         err,
		}
	})
	return c.verdicts[i]
}

// Result is the consolidated facade result: the executor's result (final
// state, synchronization stats snapshot, elapsed time, sanitizer report,
// trace recorder) plus the certify verdict of the schedule that ran — the
// triple spmdrun/benchtab/suite previously assembled by hand.
type Result struct {
	exec.Result
	// Certify is the static verdict of the step program this run executed
	// (the baseline schedule's verdict for baseline runners).
	Certify Verdict
	// Costs is the compilation's analysis bill (phase wall times and
	// Fourier-Motzkin solver work), copied from the Compiled so every
	// result carries the compile-time cost alongside the run-time one.
	Costs remarks.Costs

	// The remaining fields are filled only by Do, per the Request.
	// Runner is the runner that produced this result, for callers that
	// need further runs, the schedule hash, or the ledger assembly.
	Runner *Runner
	// FDO is the feedback pass's decision log (Compile.FDOProfile set).
	FDO *fdo.Result
	// TracingForced reports that tracing was enabled by Profile/Report
	// rather than requested (the `tracing_forced` envelope field).
	TracingForced bool
	// Profile is the run's durable sync profile (Run.Profile set).
	Profile *profile.Profile
	// Report is the static×runtime sync report (Run.Report set).
	Report *remarks.Report
	// TraceID is the run's cross-artifact join key: the same id lands in
	// the spmdrun envelope, the ledger record and the spans export. Do
	// always stamps one, even when span collection is off.
	TraceID string
	// Telemetry is the run-lifecycle span trace (Run.Spans set; nil
	// otherwise). Do returns it with the root span still open so the
	// caller can append its own phases; call Finish before exporting.
	Telemetry *telemetry.Trace
}

// Runner executes one compiled schedule. It embeds the executor's runner —
// inspection methods (Width, WidthDecision, Mode) promote — and
// shadows Run and RunContext to return the consolidated *Result. Its
// verdict, remarks and profile identity are those of the schedule it runs.
type Runner struct {
	*exec.Runner
	c     *Compiled
	sched *syncopt.Schedule
	// The schedule hash, computed on the first ScheduleHash call.
	hashOnce  sync.Once
	schedHash string
}

// Compiled returns the compilation this runner was built from.
func (r *Runner) Compiled() *Compiled { return r.c }

// Run executes the program on a fresh deterministically-seeded state.
func (r *Runner) Run() (*Result, error) {
	return r.RunContext(context.Background())
}

// RunContext is Run under a context: cancellation or deadline expiry tears
// the worker team down through the watchdog path and returns a
// *spmdrt.CancelError wrapping ctx.Err().
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	res, err := r.Runner.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return &Result{Result: *res, Certify: r.c.verdictOf(r.sched), Costs: r.c.Costs}, nil
}

// Remarks returns the remark set of the schedule this runner executes (the
// baseline schedule's remarks for baseline runners), in the same site
// numbering the runner's watchdog, stats and sabotage flags use.
func (r *Runner) Remarks() *remarks.Set { return r.sched.Remarks() }

// SyncReport joins this runner's static remarks with one run's per-site
// runtime attribution into the ranked "cost of kept barriers" report.
// Wait-time columns are populated only when the run was traced
// (exec.Config.Trace); otherwise ranking falls back to dynamic counts. The
// report's Workers is the team the run leased (Width).
func (r *Runner) SyncReport(res *Result) *remarks.Report {
	var rt map[int]remarks.SiteRuntime
	traced := false
	if res != nil {
		rt = r.Runner.SiteRuntimes(&res.Result)
		traced = res.Trace != nil
	}
	return remarks.BuildReport(r.Remarks(), rt, r.Width(), traced)
}
