package exec

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/compile"
	"repro/internal/decomp"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pool"
	"repro/internal/sanitize"
	"repro/internal/spmdrt"
	"repro/internal/syncopt"
	"repro/internal/synctrace"
	"repro/internal/telemetry"
)

// Mode is the execution model of a runner. The schedule decides it
// (syncopt.Schedule.Baseline); Runner.Mode reports it.
type Mode int

const (
	// ForkJoin runs a baseline schedule: sequential parts run on the
	// master, every parallel loop is dispatched to the team and followed
	// by a join barrier.
	ForkJoin Mode = iota
	// SPMD runs the whole program on every worker under an optimized
	// schedule: replicated statements everywhere, guarded statements on
	// the master, parallel loops partitioned, boundary synchronization
	// as scheduled.
	SPMD
)

func (m Mode) String() string {
	if m == ForkJoin {
		return "fork-join"
	}
	return "spmd"
}

// EngineName is what the `backend` field of profiles, ledger records and
// the spmdrun -json payload reads. The schemas predate the single
// statement engine and keep the field so existing profiles and fixtures
// still merge.
const EngineName = "closure"

// ConfigError reports an invalid Config field. NewRunner returns it
// instead of letting a bad configuration panic inside team startup.
type ConfigError struct {
	Field string
	Msg   string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("exec: invalid Config.%s: %s", e.Field, e.Msg)
}

// Config configures a parallel run.
type Config struct {
	Workers int
	Barrier spmdrt.BarrierKind
	Params  map[string]int64
	// Mode is read by nothing: the schedule decides the execution model
	// (syncopt.Schedule.Baseline). It stays so that existing callers that
	// set it compile.
	Mode Mode
	// Compiled optionally injects a pre-lowered closure program (as built
	// by compile.Compile) so repeated runners over one compilation share a
	// single lowering. It is used only when it was lowered from this
	// runner's program with an instrumentation setting matching Sanitize;
	// otherwise NewRunner lowers afresh.
	Compiled *compile.Prog
	// WatchdogTimeout, when positive, arms the runtime stall watchdog: a
	// run in which any worker blocks that long inside a sync primitive is
	// aborted with a structured per-worker *spmdrt.DeadlockError instead
	// of hanging.
	WatchdogTimeout time.Duration
	// ChaosSeed, when nonzero, enables deterministic seed-driven chaos
	// injection: pre/post-sync delays, forced scheduler yields and a
	// designated slow worker, stress-testing eliminated synchronization
	// under adversarial thread timing.
	ChaosSeed int64
	// SabotageEdge, when positive, silently drops the scheduled sync edge
	// with that 1-based site number (its index in the schedule's
	// Lower().Sites plus one) on every worker. This deliberately makes
	// the schedule unsound; it exists so tests can assert that the
	// state-comparison oracle and the sanitizer actually detect a
	// missing edge.
	SabotageEdge int
	// Sanitize enables the schedule-soundness sanitizer: every shared
	// access and every executed sync edge is fed to a vector-clock
	// tracker that flags cross-worker flows the schedule left unordered
	// (Result.Sanitizer carries the report).
	Sanitize bool
	// Trace enables the sync-event tracing layer: every barrier episode,
	// counter increment/wait, neighbor wait and fork-join dispatch is
	// recorded with per-worker timestamps and its sync-site id
	// (Result.Trace carries the recorder; export with WriteChromeTrace
	// or synctrace.Summarize).
	Trace bool
	// TraceBufCap overrides the per-worker trace ring capacity in events
	// (<= 0 selects synctrace.DefaultCap). When a ring fills, the oldest
	// events are overwritten and reported as dropped.
	TraceBufCap int
	// Pool optionally selects the persistent-team pool runs check their
	// team out of. Nil selects the process-wide DefaultPool; a caller that
	// wants a cold team passes a fresh pool.New.
	Pool *pool.Pool
	// Spans, when non-nil, receives run-lifecycle spans from the executor
	// — pool lease, team run, inspector scans — as children of
	// SpansParent (the caller's "execute" span; 0 hangs them off the trace
	// root). Nil disables span collection: every recording site is a single
	// nil check.
	Spans *telemetry.Trace
	// SpansParent is the parent span for the spans the executor records.
	SpansParent telemetry.SpanID
	// FixedWidth makes every run lease all Workers, the paper's fixed-P
	// measure. Otherwise NewRunner chooses the width once (WidthDecision),
	// and Sanitize, ChaosSeed and SabotageEdge, which exist to observe
	// P-worker interleavings, imply it.
	FixedWidth bool
}

// Result carries the final state and the dynamic synchronization counts.
type Result struct {
	State   *interp.State
	Stats   spmdrt.StatsSnapshot
	Elapsed time.Duration
	// Sanitizer is the soundness audit (nil unless Config.Sanitize).
	Sanitizer *sanitize.Report
	// Trace is the sync-event recorder (nil unless Config.Trace). Sites
	// 0..len(Lower().Sites)-1 are the scheduled boundaries (same numbering as
	// StatsSnapshot.PerSite minus one and SabotageEdge minus one);
	// higher ids are pseudo-sites: the fork-join dispatch, then one
	// wavefront relay per syncopt.StepWavefront step, in step order.
	Trace *synctrace.Recorder
	// Inspector reports per-site runtime-inspector behavior, keyed by
	// 1-based sync-site id (same numbering as Stats.PerSite). Nil when the
	// schedule has no inspector sites.
	Inspector map[int]InspectorSite
}

// Runner executes one (program, schedule, plan) combination repeatedly.
type Runner struct {
	prog *ir.Program
	plan *decomp.Plan
	cfg  Config
	// width is how many workers a run leases (decision.W), which every
	// slice, fold and neighbor test of a run divides by.
	width    int
	decision WidthDecision
	// mode is the execution model the schedule lowers for.
	mode Mode
	// low is the lowered schedule (syncopt.Lower), the step
	// program every worker runs; low.Sites[id] is the boundary with global
	// sync-site id id+1. at[i] is what NewRunner resolved for low.Steps[i].
	low    *syncopt.Steps
	nSites int
	at     []stepAt
	// insp[id] is an inspector site lowered for its scans (inspect.go), nil
	// for other classes; hasInsp says whether there is any. rowHook lets
	// tests see and replace every row a scan computes.
	insp    []*inspSite
	hasInsp bool
	rowHook func(ws *workerState, site int, row []int) []int
	// siteLabels[id] names a site in watchdog reports; traceLabels[id]
	// names it in the sync-event trace (built only under Config.Trace).
	siteLabels, traceLabels []string
	// relays are the loops of the StepWavefront steps, in step order, each
	// a rank-order relay chain; folds are those of the StepParallel steps
	// with reductions, each finalized by a fold (workerState.fold).
	relays, folds []*ir.Loop
	// repl are the scalars that live in per-worker storage under SPMD
	// (the paper's replicated computation model), in declaration order.
	repl []replScalar
	// maxCells is the most private and reduction scalars any one parallel
	// loop activates: the size of a worker's cell and save lists.
	maxCells int
	// exe is the lowered closure program; newEngine binds one worker's
	// statement engine over it for a run.
	exe       *compile.Prog
	newEngine func(run *teamRun, w int) engine
}

// stepAt is what NewRunner resolved for one step: its loop's placement,
// lowered over the register file so a slice is a few multiply-adds, its
// relay (index in relays) or fold (in folds), its index register, and the
// loop with its driver and bound closures, so a slice looks up no map.
type stepAt struct {
	place       *placement
	relay, fold int
	reg         int
	loop        *ir.Loop
	rng         compile.RangeFn
	lo, hi      compile.IntFn
}

// placement is a decomp.Placement resolved for the runner's register file.
type placement struct {
	of          *decomp.Placement
	offset, ext compile.RegAffine
}

// replScalar is a replicated scalar and its slot in the shared vector.
type replScalar struct {
	name string
	slot int
}

// NewRunner validates the configuration, lowers the program (or adopts
// cfg.Compiled) and the schedule (syncopt.Lower), and precomputes
// everything that is fixed per runner — each step's placement, relay chain
// or fold and index register, site labels, inspector scans, replicated
// scalars — so per-run work is team setup and frame binding.
func NewRunner(prog *ir.Program, sched *syncopt.Schedule, plan *decomp.Plan, cfg Config) (*Runner, error) {
	if cfg.Workers < 1 {
		return nil, &ConfigError{Field: "Workers",
			Msg: fmt.Sprintf("must be at least 1, got %d", cfg.Workers)}
	}
	r := &Runner{prog: prog, plan: plan, cfg: cfg, newEngine: newFrameEngine}
	r.exe = cfg.Compiled
	if r.exe != nil && (r.exe.Source() != prog || r.exe.Instrumented() != cfg.Sanitize) {
		r.exe = nil
	}
	if r.exe == nil {
		var err error
		r.exe, err = compile.Compile(prog, nil, compile.Options{Instrument: cfg.Sanitize})
		if err != nil {
			return nil, err
		}
	}
	r.mode = SPMD
	if sched.Baseline {
		r.mode = ForkJoin
	}
	r.low = sched.Lower()
	r.nSites = len(r.low.Sites)
	r.at = make([]stepAt, len(r.low.Steps))
	for i, st := range r.low.Steps {
		at := &r.at[i]
		if st.Loop != nil {
			at.loop, at.rng = st.Loop, r.exe.Range(st.Loop)
			at.lo, at.hi = r.exe.Bounds(st.Loop)
		}
		switch st.Kind {
		case syncopt.StepSeq, syncopt.StepNext:
			at.reg, _ = r.exe.Layout().IndexReg(st.Loop.Index) // the layout gives every loop index one
		case syncopt.StepParallel, syncopt.StepWavefront:
			pl := plan.Placements[st.Loop]
			if pl == nil {
				return nil, fmt.Errorf("exec: no placement for loop %s", st.Loop.Index)
			}
			var err error
			if at.place, err = r.lowerPlacement(pl); err != nil {
				return nil, err
			}
			if st.Kind == syncopt.StepWavefront {
				at.relay, r.relays = len(r.relays), append(r.relays, st.Loop)
			} else if len(st.Loop.Reductions) > 0 {
				for _, red := range st.Loop.Reductions {
					if !prog.IsScalar(red.Var) {
						return nil, fmt.Errorf("exec: reduction variable %s is not a scalar", red.Var)
					}
				}
				at.fold, r.folds = len(r.folds), append(r.folds, st.Loop)
			}
			r.maxCells = max(r.maxCells, len(st.Loop.Private)+len(st.Loop.Reductions))
		}
	}
	if cfg.SabotageEdge < 0 || cfg.SabotageEdge > r.nSites {
		return nil, &ConfigError{Field: "SabotageEdge",
			Msg: fmt.Sprintf("%d out of range (schedule has %d sync sites)",
				cfg.SabotageEdge, r.nSites)}
	}
	r.insp = make([]*inspSite, r.nSites)
	r.siteLabels = make([]string, r.nSites)
	if cfg.Trace {
		r.traceLabels = make([]string, r.nSites)
	}
	for i, site := range r.low.Sites {
		r.siteLabels[i] = fmt.Sprintf("sync site %d", i+1)
		if cfg.Trace {
			r.traceLabels[i] = fmt.Sprintf("site %d [%s]", i+1, site.Class)
		}
		if site.Class == comm.ClassInspector {
			var err error
			if r.insp[i], err = r.lowerInspector(site.Inspect); err != nil {
				return nil, err
			}
			r.hasInsp = true
		}
	}
	if r.mode == SPMD && sched.Info != nil {
		for i, name := range prog.Scalars {
			if sched.Info.ReplicatedScalars[name] {
				r.repl = append(r.repl, replScalar{name, i})
			}
		}
	}
	r.decision = r.decideWidth()
	r.width = r.decision.W
	return r, nil
}

// lowerPlacement resolves a plan placement over the register file.
func (r *Runner) lowerPlacement(pl *decomp.Placement) (*placement, error) {
	off, err := compile.LowerAffine(pl.Offset, r.exe.Layout())
	if err != nil {
		return nil, err
	}
	ext, err := compile.LowerAffine(pl.Space.Extent, r.exe.Layout())
	return &placement{of: pl, offset: off, ext: ext}, err
}

// Width returns how many of the Workers a run leases.
func (r *Runner) Width() int { return r.width }

// WidthDecision returns how NewRunner chose Width.
func (r *Runner) WidthDecision() WidthDecision { return r.decision }

// Run executes the program on a fresh deterministically-seeded state.
func (r *Runner) Run() (*Result, error) {
	return r.RunContext(context.Background())
}

// RunContext is Run under a context: cancellation or deadline expiry trips
// the team's failure latch, every worker blocked in a runtime primitive
// unwinds, and the call returns a *spmdrt.CancelError wrapping ctx.Err().
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	sp := r.cfg.Spans.Start(r.cfg.SpansParent, "state")
	st, err := interp.NewState(r.prog, r.cfg.Params)
	if err != nil {
		r.cfg.Spans.End(sp)
		return nil, err
	}
	st.SeedDeterministic()
	r.cfg.Spans.End(sp)
	return r.RunContextOn(ctx, st)
}

// defaultPool is the process-wide team pool (see DefaultPool).
var (
	defaultPoolOnce sync.Once
	defaultPool     *pool.Pool
)

// DefaultPool returns the process-wide persistent-team pool that pooled
// runs use when Config.Pool is nil.
func DefaultPool() *pool.Pool {
	defaultPoolOnce.Do(func() {
		defaultPool = pool.New(pool.Options{})
	})
	return defaultPool
}

// RunContextOn executes the program over existing storage under a context
// (see RunContext). The team is checked out of Config.Pool.
func (r *Runner) RunContextOn(ctx context.Context, st *interp.State) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, &spmdrt.CancelError{Cause: err}
	}
	spans, parentSp := r.cfg.Spans, r.cfg.SpansParent
	ps := newPState(st)
	tp := r.cfg.Pool
	if tp == nil {
		tp = DefaultPool()
	}
	leaseSp := spans.Start(parentSp, "pool lease")
	lease, err := tp.Checkout(r.width, r.cfg.Barrier)
	spans.End(leaseSp)
	if err != nil {
		return nil, err
	}
	// relErr is what the lease is released with: nil parks the team through
	// the reset protocol, non-nil closes it. Worker evaluation errors leave
	// it nil — the team itself ran to completion and stays reusable.
	var relErr error
	defer func() { lease.Release(relErr) }()
	team := lease.Team().Team()
	if r.cfg.WatchdogTimeout > 0 {
		team.SetWatchdog(r.cfg.WatchdogTimeout)
	}
	run := &teamRun{
		Runner:   r,
		ps:       ps,
		team:     team,
		counters: make([]*spmdrt.Counter, r.nSites),
		p2ps:     make([]*spmdrt.P2P, r.nSites),
		dispatch: team.NewCounter(),
		errs:     make([]error, r.width),
		ws:       make([]*workerState, r.width),
		relay:    make([]*spmdrt.P2P, len(r.relays)),
		folds:    make([]foldState, len(r.folds)),
		sabotage: r.cfg.SabotageEdge - 1,
	}
	for i, l := range r.folds {
		run.folds[i].parts = make([]float64, r.width*(len(l.Reductions)+foldPad))
	}
	run.dispatch.Site = "fork-join dispatch"
	if r.cfg.ChaosSeed != 0 {
		run.chaos = spmdrt.NewChaos(r.cfg.ChaosSeed, r.width)
	}
	if r.cfg.Sanitize {
		run.san = newSanRun(r.prog, r.exe, ps, r.width)
	}
	for i := 0; i < r.nSites; i++ {
		run.counters[i] = team.NewCounter()
		run.counters[i].Site = r.siteLabels[i]
		run.p2ps[i] = team.NewP2P()
	}
	if r.hasInsp {
		run.inspW = make([][]inspWorker, r.width)
	}
	if r.cfg.Trace {
		rec := synctrace.New(r.width, r.cfg.TraceBufCap)
		// Scheduled sites register first so trace ids 0..nSites-1 match
		// the stats/watchdog/sabotage numbering (1-based there).
		for i := 0; i < r.nSites; i++ {
			rec.AddSite(r.traceLabels[i])
			run.counters[i].BindTrace(rec, int32(i), synctrace.EvCounterIncr, synctrace.EvCounterWait)
			run.p2ps[i].BindTrace(rec, int32(i))
		}
		team.SetTrace(rec)
		run.dispatch.BindTrace(rec, rec.AddSite("fork-join dispatch"),
			synctrace.EvDispatch, synctrace.EvDispatchWait)
		run.rec = rec
	}
	// Relay chains are synchronization without a scheduled boundary site;
	// give each its own pseudo-site so waits still attribute.
	for i, l := range r.relays {
		run.relay[i] = team.NewP2P()
		if run.rec != nil {
			run.relay[i].BindTrace(run.rec, run.rec.AddSite("wavefront relay "+l.Index))
		}
	}
	// Replicated scalars live in per-worker cells; worker 0's final values
	// are flushed back afterwards.
	repl0 := make([]*float64, len(r.repl))

	if ctx.Done() != nil {
		stop := make(chan struct{})
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			select {
			case <-ctx.Done():
				team.Cancel(ctx.Err())
			case <-stop:
			}
		}()
		// Join the watcher — not just signal it — before the deferred
		// lease release: a team.Cancel racing the reset protocol could
		// latch a team that is already parked for the next checkout.
		defer func() { close(stop); <-stopped }()
	}

	body := func(w int) {
		ws := &workerState{
			run:       run,
			w:         w,
			cum:       make([]int64, r.nSites),
			cross:     make([]int64, r.nSites),
			tally:     make([]spmdrt.SiteCounts, r.nSites+1),
			activeBuf: make([]bool, r.width),
			hi:        make([]int64, len(r.low.Steps)),
			relayInst: make([]int64, len(r.relays)),
			foldCnt:   make([]foldCount, len(r.folds)),
			eng:       r.newEngine(run, w),
			regs:      make([]int64, r.exe.Layout().NumRegs()),
			cells:     make([]float64, r.maxCells),
			saves:     make([]savedPriv, 0, r.maxCells),
		}
		run.ws[w] = ws
		run.seedParams(ws.regs)
		if run.inspW != nil {
			ws.insp = make([]inspWorker, r.nSites)
			run.inspW[w] = ws.insp
		}
		for i, rs := range r.repl {
			cell := new(float64)
			*cell = ps.loadScalar(rs.slot)
			ws.eng.setPriv(rs.name, cell)
			if w == 0 {
				repl0[i] = cell
			}
		}
		ws.runSteps()
		ws.eng.done()
		run.errs[w] = ws.err
	}
	runSp := spans.Start(parentSp, "team run")
	start := time.Now()
	runErr := lease.Team().Run(body)
	elapsed := time.Since(start)
	spans.End(runSp)
	if runErr != nil {
		// A watchdog deadlock report, a recovered worker panic or a
		// cancellation: the run was aborted, shared state is not
		// meaningful, and the team's failure latch is tripped for good —
		// close it.
		relErr = runErr
		return nil, runErr
	}
	for _, e := range run.errs {
		if e != nil {
			return nil, e
		}
	}
	for i, cell := range repl0 {
		ps.storeScalar(r.repl[i].slot, *cell)
	}
	ps.flushTo(st)
	// Teardown-time: workers have quiesced, so stamping the recorder's
	// run metadata here is safe. Untraced runs skip the formatting too: it
	// allocates once the team's generation passes 99.
	if run.rec != nil {
		run.rec.SetMeta("team_generation", strconv.FormatInt(team.Generation(), 10))
	}
	res := &Result{State: st, Stats: run.stats(), Elapsed: elapsed, Trace: run.rec}
	if run.inspW != nil {
		res.Inspector = map[int]InspectorSite{}
		var scanNS, scans int64
		for id, is := range r.insp {
			if is != nil {
				stats := foldInspector(is, id, run.inspW)
				res.Inspector[id+1] = stats
				scanNS += stats.ScanNS
				scans += stats.Scans
			}
		}
		if spans != nil && scans > 0 {
			// Scans run inside the team-run interval; the span records their
			// aggregate wall cost (worker 0's measurement), anchored at the
			// team run's start.
			sp := spans.Add(parentSp, "inspector scans", start, time.Duration(scanNS))
			spans.SetAttr(sp, "scans", strconv.FormatInt(scans, 10))
		}
	}
	if run.san != nil {
		res.Sanitizer = run.san.tr.Report()
	}
	return res, nil
}

// teamRun is the shared per-run context.
type teamRun struct {
	*Runner
	ps       *pstate
	team     *spmdrt.Team
	counters []*spmdrt.Counter
	p2ps     []*spmdrt.P2P
	dispatch *spmdrt.Counter
	errs     []error
	// ws[w] is worker w's state, whose tallies stats sums after the join.
	ws []*workerState
	// relay[i] is the rank-order handoff chain of relays[i]; folds[i] holds
	// the partials and arrivals of folds[i].
	relay []*spmdrt.P2P
	folds []foldState
	// chaos is the optional deterministic perturbation layer (nil-safe).
	chaos *spmdrt.Chaos
	// san is the optional schedule-soundness sanitizer wiring.
	san *sanRun
	// rec is the optional sync-event recorder (nil when tracing is off).
	rec *synctrace.Recorder
	// inspW[w] is worker w's per-site inspector state, folded into
	// Result.Inspector after the join (nil when the schedule has no
	// inspector site).
	inspW [][]inspWorker
	// sabotage is the sync-site id to silently drop (-1 for none).
	sabotage int
}

// stats sums the workers' tallies into the run's counts: site i's are
// tally[i] over the workers, and the slot past the sites (the relay chains)
// counts toward the totals only. Every worker takes part in every dispatch,
// so worker 0's sequence number is their count.
func (run *teamRun) stats() spmdrt.StatsSnapshot {
	s := spmdrt.StatsSnapshot{Dispatches: run.ws[0].dispatchSeq}
	if run.nSites > 0 {
		s.PerSite = map[int]spmdrt.SiteCounts{}
	}
	for i := 0; i <= run.nSites; i++ {
		var c spmdrt.SiteCounts
		for _, ws := range run.ws {
			t := &ws.tally[i]
			c.Barriers += t.Barriers
			c.CounterIncrs += t.CounterIncrs
			c.CounterWaits += t.CounterWaits
			c.NeighborWaits += t.NeighborWaits
		}
		s.Barriers += c.Barriers
		s.CounterIncrs += c.CounterIncrs
		s.CounterWaits += c.CounterWaits
		s.NeighborWaits += c.NeighborWaits
		if i < run.nSites && c != (spmdrt.SiteCounts{}) {
			s.PerSite[i+1] = c
		}
	}
	return s
}

// seedParams stores the run's parameter values in their registers.
func (run *teamRun) seedParams(regs []int64) {
	lay := run.exe.Layout()
	for name, v := range run.ps.params {
		if reg, ok := lay.ParamReg(name); ok {
			regs[reg] = v
		}
	}
}

// workerState is one worker's execution context: the step program run
// over one statement engine.
type workerState struct {
	run *teamRun
	w   int
	eng engine
	err error
	// regs is the steps' own register file: the parameters and the indices
	// of the sequential loops the steps drive (setIndex) — what placements
	// and inspector scans read. Indices of loops the engine runs are not
	// in it; no sync site or slice computation is inside such a loop.
	regs []int64
	// hi[i] is the upper bound of the sequential loop StepSeq i entered.
	hi []int64
	// cells and saves back the private and reduction scalars of the
	// parallel loop being executed (execParallelSlice), sized for the
	// widest loop so a slice allocates nothing.
	cells []float64
	saves []savedPriv
	// cum: per-site cumulative counter targets (identical on all
	// workers — each computes them from the same deterministic data).
	cum []int64
	// cross: per-site neighbor-sync crossing counts.
	cross []int64
	// tally: per-site events — barrier episodes on worker 0 only, counter
	// and point-to-point events on every worker (last: the relay chains'
	// unsited waits) — summed into Result.Stats after the join.
	tally []spmdrt.SiteCounts
	// dispatchSeq: fork-join dispatch sequence number, so worker 0's is the
	// run's dispatch count.
	dispatchSeq int64
	activeBuf   []bool
	// relayInst[i] counts this worker's passes through relay chain i.
	relayInst []int64
	// foldCnt[i] is this worker's arrival target at fold i.
	foldCnt []foldCount
	// insp is this worker's state at each inspector site (nil without one);
	// sc computes its rows, built at the first crossing.
	insp []inspWorker
	sc   *scanner
}

// savedPriv remembers the redirection a scalar had before a parallel loop
// pointed it at one of the worker's cells.
type savedPriv struct {
	name string
	old  *float64
}

func (ws *workerState) fail(err error) {
	if ws.err == nil && err != nil {
		ws.err = err
	}
}

// bounds evaluates a loop's bounds; a fault becomes the worker's error.
// The worker keeps participating in synchronization afterwards so peers
// are not deadlocked by its failure.
func (ws *workerState) bounds(at *stepAt) (lo, hi int64, ok bool) {
	lo, hi, err := ws.eng.bounds(at)
	if err != nil {
		ws.fail(err)
		return 0, 0, false
	}
	return lo, hi, true
}

// runSteps runs the lowered schedule from its first step to its last.
func (ws *workerState) runSteps() {
	run := ws.run
	for pc := 0; pc < len(run.low.Steps); pc++ {
		if run.team.Failed() {
			// The team failure latch tripped (watchdog, peer panic or
			// context cancellation): stop compute-bound work. Peers
			// blocked in primitives unwind through the latch, so skipping
			// the remaining posts cannot deadlock them.
			return
		}
		st, at := &run.low.Steps[pc], &run.at[pc]
		switch st.Kind {
		case syncopt.StepParallel:
			ws.execParallelSlice(st.Loop, at)
		case syncopt.StepReplicated:
			// Every worker executes the statement with identical inputs
			// (the paper's replicated computation model); any shared store
			// is a same-value store, which the sanitizer must exempt.
			ws.eng.setRepl(true)
			ws.seqExec(st.Stmts)
			ws.eng.setRepl(false)
		case syncopt.StepGuarded:
			if ws.w == 0 {
				ws.seqExec(st.Stmts)
			}
		case syncopt.StepWavefront:
			ws.execWavefront(at)
		case syncopt.StepDispatch:
			ws.dispatch()
		case syncopt.StepSeq:
			if lo, hi, ok := ws.bounds(at); ok && lo <= hi {
				ws.hi[pc] = hi
				ws.setIndex(at.reg, lo)
				ws.eng.enter(at)
			} else {
				pc = st.Jump - 1
			}
		case syncopt.StepNext:
			if k := ws.regs[at.reg] + 1; k <= ws.hi[st.Jump-1] {
				ws.setIndex(at.reg, k)
				pc = st.Jump - 1
			}
		case syncopt.StepSync:
			ws.applySync(st.Site)
		}
	}
}

func (ws *workerState) setIndex(reg int, v int64) {
	ws.regs[reg] = v
	ws.eng.setIndex(reg, v)
}

// dispatch is the fork-join master signalling that preceding sequential
// work is complete.
func (ws *workerState) dispatch() {
	run := ws.run
	run.chaos.PreSync(ws.w)
	ws.dispatchSeq++
	if ws.w == 0 {
		if run.san != nil {
			run.san.tr.CounterPost(run.dispatch, ws.w)
		}
		run.dispatch.PostAs(ws.w, 1, ws.dispatchSeq)
	} else {
		run.dispatch.WaitGEAs(ws.w, ws.dispatchSeq)
		if run.san != nil {
			run.san.tr.CounterJoin(run.dispatch, ws.w)
		}
	}
	run.chaos.PostSync(ws.w)
}

// execWavefront runs the worker's chunk of a serial loop as a relay:
// ascending rank order with point-to-point handoffs preserves the exact
// sequential iteration order across workers (§3.3 pipelining — workers in
// an enclosing sequential loop proceed in a staggered wave).
func (ws *workerState) execWavefront(at *stepAt) {
	lo, hi, ok := ws.bounds(at)
	if !ok {
		return
	}
	run, chain := ws.run, ws.run.relay[at.relay]
	ws.relayInst[at.relay]++
	if ws.w > 0 {
		ws.tally[run.nSites].NeighborWaits++
		run.chaos.PreSync(ws.w)
		chain.WaitForAs(ws.w, ws.w-1, ws.relayInst[at.relay])
		if run.san != nil {
			run.san.tr.P2PJoin(chain, ws.w, ws.w-1)
		}
		run.chaos.PostSync(ws.w)
	}
	start, end, step := at.place.slice(ws.regs, lo, hi, ws.w, run.width)
	ws.runSlice(at, start, end, step)
	if run.san != nil {
		run.san.tr.P2PPost(chain, ws.w)
	}
	chain.Post(ws.w)
}

// runSlice executes the worker's iterations of a partitioned loop. The
// worker's error cannot change inside the slice (a faulting body only sets
// the engine's fault slot), so it is tested once here and the engine's loop
// tests only its own slot.
func (ws *workerState) runSlice(at *stepAt, start, end, step int64) {
	if ws.err == nil {
		ws.fail(ws.eng.runSlice(at, start, end, step))
	}
}

// execParallelSlice runs this worker's partition of a parallel loop.
func (ws *workerState) execParallelSlice(l *ir.Loop, at *stepAt) {
	lo, hi, ok := ws.bounds(at)
	if !ok {
		return
	}
	start, end, step := at.place.slice(ws.regs, lo, hi, ws.w, ws.run.width)
	// Activate privates and reduction partials: redirect the scalar to a
	// worker-local cell, remembering the previous redirection for restore
	// (a replicated scalar is already redirected when the loop starts). A
	// worker with iterations in a reduction step accumulates its partials in
	// its slots of the step's fold; one without never touches them.
	var slots []float64
	if len(l.Reductions) > 0 && ws.arrives(l, at, lo, hi) {
		slots = ws.foldCnt[at.fold].slots
	}
	for _, p := range l.Private {
		ws.activate(p, &ws.cells[len(ws.saves)], 0)
	}
	for i := range slots {
		ws.activate(l.Reductions[i].Var, &slots[i], reductionIdentity(l.Reductions[i].Op))
	}
	ws.runSlice(at, start, end, step)
	if slots != nil {
		ws.fold(l, at)
	}
	for i := len(ws.saves) - 1; i >= 0; i-- {
		ws.eng.setPriv(ws.saves[i].name, ws.saves[i].old)
	}
	ws.saves = ws.saves[:0]
}

// foldPad is the float64s between one rank's partials and the next rank's:
// a cache line, as each rank updates its own every iteration.
const foldPad = 8

// foldState is one reduction step's fold within a run: rank w accumulates
// its partial of the step's i-th reduction in parts[w*(n+foldPad)+i] (n
// reductions), and arrived counts active workers' arrivals so far.
type foldState struct {
	arrived atomic.Int64
	parts   []float64
}

// foldCount is one worker's view of a fold: its slots in parts, its arrival
// target cum (kept like a counter site's), and which ranks and how many have
// iterations under key's bounds and placement (none, for the zero key).
type foldCount struct {
	slots       []float64
	cum, active int64
	key         [4]int64
	act         []bool
}

// arrives adds this instance's active workers to the worker's arrival
// target at a reduction step and reports whether it is one of them.
func (ws *workerState) arrives(l *ir.Loop, at *stepAt, lo, hi int64) bool {
	fc, pl, W := &ws.foldCnt[at.fold], at.place, ws.run.width
	if fc.act == nil {
		n := len(l.Reductions)
		fc.act, fc.slots = make([]bool, W), ws.run.folds[at.fold].parts[ws.w*(n+foldPad):][:n]
	}
	if key := [4]int64{lo, hi, pl.offset.Eval(ws.regs), pl.ext.Eval(ws.regs)}; key != fc.key {
		fc.key, fc.active = key, 0
		for w := range fc.act {
			st, en, _ := pl.slice(ws.regs, lo, hi, w, W)
			fc.act[w] = st <= en
			if fc.act[w] {
				fc.active++
			}
		}
	}
	fc.cum += fc.active
	return fc.act[ws.w]
}

// fold finalizes this instance of a reduction step without waiting: the
// worker whose arrival reaches the target folds ranks 0..P-1 into the shared
// scalars in rank order, a rank without iterations contributing the
// identity, so every run gives the same bits. No slot is rewritten before it
// is folded: comm models a reduction update as a write by every active
// worker, so the schedule orders the scalars' readers and the next
// instance's update after the folder's.
func (ws *workerState) fold(l *ir.Loop, at *stepAt) {
	f, fc, n := &ws.run.folds[at.fold], &ws.foldCnt[at.fold], len(l.Reductions)
	if f.arrived.Add(1) != fc.cum {
		return
	}
	ps := ws.run.ps
	for i, red := range l.Reductions {
		slot, id := ps.scalarIdx[red.Var], reductionIdentity(red.Op)
		acc := ps.loadScalar(slot)
		for w, a := range fc.act {
			v := id
			if a {
				v = f.parts[w*(n+foldPad)+i]
			}
			acc = combine(red.Op, acc, v)
		}
		ps.storeScalar(slot, acc)
	}
}

// activate redirects a scalar to cell, set to init.
func (ws *workerState) activate(name string, cell *float64, init float64) {
	*cell = init
	ws.saves = append(ws.saves, savedPriv{name, ws.eng.setPriv(name, cell)})
}

// slice is worker w's share, of W, of iterations lo..hi under the
// registers' current values; start > end when it has none.
func (pl *placement) slice(regs []int64, lo, hi int64, w, W int) (start, end, step int64) {
	off, ext := pl.offset.Eval(regs), pl.ext.Eval(regs)
	if ext < 1 || lo > hi {
		return 0, -1, 1
	}
	return decomp.IterSlice(pl.of.Kind, lo, hi, off, ext, w, W)
}

// seqExec executes statements sequentially on this worker (bodies of
// parallel-loop slices, guarded statements, replicated statements). Any
// nested `parallel` annotation inside is executed sequentially here.
func (ws *workerState) seqExec(stmts []ir.Stmt) {
	if ws.err == nil {
		ws.fail(ws.eng.exec(stmts))
	}
}

// applySync performs the synchronization of a scheduled site.
func (ws *workerState) applySync(site int) {
	run := ws.run
	sync := &run.low.Sites[site]
	if site == run.sabotage {
		// Schedule sabotage: this edge is deliberately dropped (on every
		// worker) so tests can prove the oracle/sanitizer catches the
		// resulting unordered flows.
		return
	}
	run.chaos.PreSync(ws.w)
	defer run.chaos.PostSync(ws.w)
	switch sync.Class {
	case comm.ClassBarrier:
		if ws.w == 0 {
			ws.tally[site].Barriers++
		}
		if run.san != nil {
			run.san.tr.Barrier(ws.w, func() { run.team.BarrierAt(ws.w, site) })
		} else {
			run.team.BarrierAt(ws.w, site)
		}
	case comm.ClassCounter:
		self, total := ws.producers(sync)
		ws.cum[site] += int64(total)
		if self {
			ws.tally[site].CounterIncrs++
			if run.san != nil {
				run.san.tr.CounterPost(run.counters[site], ws.w)
			}
			run.counters[site].PostAs(ws.w, 1, ws.cum[site])
		}
		ws.tally[site].CounterWaits++
		run.counters[site].WaitGEAs(ws.w, ws.cum[site])
		if run.san != nil {
			run.san.tr.CounterJoin(run.counters[site], ws.w)
		}
	case comm.ClassNeighbor:
		ws.cross[site]++
		c := ws.cross[site]
		if run.san != nil {
			run.san.tr.P2PPost(run.p2ps[site], ws.w)
		}
		run.p2ps[site].Post(ws.w)
		if sync.WaitLower && ws.w > 0 {
			ws.tally[site].NeighborWaits++
			run.p2ps[site].WaitForAs(ws.w, ws.w-1, c)
			if run.san != nil {
				run.san.tr.P2PJoin(run.p2ps[site], ws.w, ws.w-1)
			}
		}
		if sync.WaitUpper && ws.w < run.width-1 {
			ws.tally[site].NeighborWaits++
			run.p2ps[site].WaitForAs(ws.w, ws.w+1, c)
			if run.san != nil {
				run.san.tr.P2PJoin(run.p2ps[site], ws.w, ws.w+1)
			}
		}
	case comm.ClassInspector:
		ws.applyInspector(site)
	}
}

// producers reports whether this worker posts at a counter site and how
// many workers do (the counter target). All workers compute identical
// totals from the same deterministic partition arithmetic; a loop whose
// bounds do not evaluate conservatively counts everyone.
func (ws *workerState) producers(s *syncopt.Site) (self bool, total int) {
	act := ws.activeBuf
	for w := range act {
		act[w] = s.All || (w == 0 && s.Master)
	}
	for _, i := range s.Producers {
		lo, hi, ok := ws.eng.probeBounds(&ws.run.at[i])
		for w := range act {
			if !act[w] {
				st, en, _ := ws.run.at[i].place.slice(ws.regs, lo, hi, w, len(act))
				act[w] = !ok || st <= en
			}
		}
	}
	for w, a := range act {
		if a {
			total++
			self = self || w == ws.w
		}
	}
	return self, total
}
