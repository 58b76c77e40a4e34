package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/deps"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/irreg"
	"repro/internal/linear"
	"repro/internal/lint"
	"repro/internal/parallel"
	"repro/internal/parser"
	"repro/internal/region"
	"repro/internal/syncopt"
	"repro/internal/synctrace"
)

// This file holds every call the harness makes into the system under
// test. Each layer is measured from outside, around its public functions.

// allocMB is the heap a call allocated: the TotalAlloc delta around it.
func allocMB(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

// runOnce times one Run of a compile-once handle on the pooled team and
// verifies its final state once the clock has stopped. The call goes to
// the executor's Run through the core handle: core's own Run also
// memoizes a certify verdict on first use, which is the request's cost
// (request_ms) and would otherwise land in set-up.
func (h *harness) runOnce(k *progState, r *core.Runner, span, series, allocSeries string) *exec.Result {
	var res *exec.Result
	var err error
	var d time.Duration
	run := func() { d = h.timeCall(span, k, func() { res, err = r.Runner.Run() }) }
	mb := 0.0
	if allocSeries != "" {
		mb = allocMB(run)
	} else {
		run()
	}
	h.check(err == nil, "%s: %s: %v", k.prog.name, span, err)
	if err != nil {
		return nil
	}
	h.verifyState(k, res.State, span)
	k.add(series, msOf(d))
	if allocSeries != "" {
		k.add(allocSeries, mb)
	}
	return res
}

// runOpt is one optimized run on the compile-once handle.
func (h *harness) runOpt(k *progState, _ int) {
	h.runOnce(k, k.opt, "exec.Run opt", "opt_ms", "run_alloc_mb")
}

// runPair is one opt/base pair; the order flips every pair.
func (h *harness) runPair(k *progState, i int) {
	opt := func() { h.runOpt(k, i) }
	base := func() { h.runOnce(k, k.base, "exec.Run base", "base_ms", "") }
	if optFirst(i) {
		opt()
		base()
	} else {
		base()
		opt()
	}
}

// tracedRun is one optimized run with sync-event tracing on; the trace
// splits worker time into compute and waiting per primitive.
func (h *harness) tracedRun(k *progState, _ int) {
	res := h.runOnce(k, k.traced, "exec.Run traced", "traced_ms", "")
	if res == nil {
		return
	}
	var s *synctrace.Summary
	h.timeCall("synctrace.Summarize", k, func() { s = synctrace.Summarize(res.Trace) })
	workers := float64(s.Workers)
	wait := s.TotalWait()
	k.add("span_ms", msOf(s.Span))
	k.add("wait_ms", msOf(wait)/workers)
	k.add("compute_ms", msOf(s.Span)-msOf(wait)/workers)
	k.add("wait_barrier_ms", msOf(s.ByKind[synctrace.EvBarrier].Wait)/workers)
	k.add("wait_counter_ms", msOf(s.ByKind[synctrace.EvCounterWait].Wait)/workers)
	k.add("wait_neighbor_ms", msOf(s.ByKind[synctrace.EvNeighborWait].Wait)/workers)
}

// request is one cold request, what a `spmdrun -lint -certify` user waits
// for: lint, compile, certify, lease a team, run. observed adds sync
// tracing, lifecycle spans and the sync report.
func (h *harness) request(k *progState, observed bool) {
	opts := []core.RequestOption{core.WithLint(), core.WithCertify(),
		core.WithWorkers(h.p), core.WithParams(k.params)}
	span, series := "core.Do", "request_ms"
	if observed {
		opts = append(opts, core.WithTrace(), core.WithSpans(), core.WithReport())
		span, series = "core.Do observed", "request_obs_ms"
	}
	var res *core.Result
	var err error
	var d time.Duration
	mb := allocMB(func() {
		d = h.timeCall(span, k, func() {
			res, err = core.Do(context.Background(), core.NewRequest(k.prog.source, opts...))
		})
	})
	h.check(err == nil && res.Certify.Certified, "%s: %s: %v", k.prog.name, span, err)
	if err != nil {
		return
	}
	h.verifyState(k, res.State, span)
	k.add(series, msOf(d))
	if !observed {
		k.add("request_alloc_mb", mb)
		return
	}
	res.Telemetry.Finish()
	phase := map[string]float64{}
	for _, sp := range res.Telemetry.Spans() {
		phase[sp.Name] += float64(sp.DurNS) / 1e6
	}
	for name, series := range phaseSeries {
		k.add(series, phase[name])
	}
}

// phaseSeries maps the lifecycle span names core.Do emits to the series
// behind core.phase_ms.*.
var phaseSeries = map[string]string{
	"lint":       "phase_lint_ms",
	"compile":    "phase_compile_ms",
	"certify":    "phase_certify_ms",
	"setup":      "phase_setup_ms",
	"pool lease": "phase_lease_ms",
	"team run":   "phase_team_run_ms",
	"report":     "phase_report_ms",
}

// requestPair is a plain and an observed request, order flipped every
// pair; their ratio is the cost of observing a request.
func (h *harness) requestPair(k *progState, i int) {
	if optFirst(i) {
		h.request(k, false)
		h.request(k, true)
	} else {
		h.request(k, true)
		h.request(k, false)
	}
}

// replay performs the steps of core.CompileProgram one by one, then the
// closure lowering and runner construction, timing each layer's entry
// point on its own.
func (h *harness) replay(k *progState, _ int) {
	step := func(series, span string, f func()) {
		k.add(series, usOf(h.timeCall(span, k, f)))
	}
	src := k.prog.source
	step("lint.source_us", "lint.Source", func() { lint.Source(src) })
	var prog *ir.Program
	var err error
	step("parser.parse_us", "parser.Parse", func() { prog, err = parser.Parse(src) })
	if err != nil {
		h.check(false, "%s: parser.Parse: %v", k.prog.name, err)
		return
	}
	var (
		ctx   *deps.Context
		plan  *decomp.Plan
		info  *region.Info
		facts *irreg.Facts
		an    *comm.Analyzer
		sched *syncopt.Schedule
		exe   *compile.Prog
	)
	step("deps.context_us", "deps.NewContext", func() { ctx = deps.NewContext(prog, 1) })
	step("parallel.parallelize_us", "parallel.Parallelize", func() { parallel.Parallelize(ctx) })
	step("decomp.build_us", "decomp.Build", func() { plan = decomp.Build(prog, k.c.Options.Decomp) })
	step("region.classify_us", "region.Classify", func() { info = region.Classify(prog, plan.Wavefront) })
	step("irreg.analyze_us", "irreg.Analyze", func() { facts = irreg.Analyze(prog, info, 1) })
	step("syncopt.build_us", "comm.New+syncopt.Build", func() {
		an = comm.New(ctx, plan, info)
		an.Facts = facts
		sched = syncopt.Build(an, syncopt.Options{})
	})
	step("syncopt.baseline_us", "syncopt.Build baseline", func() {
		syncopt.Build(an, syncopt.Options{Baseline: true})
	})
	step("compile.lower_us", "compile.Compile", func() { exe, err = compile.Compile(prog, nil, compile.Options{}) })
	if err == nil {
		step("exec.new_runner_us", "exec.NewRunner", func() {
			_, err = exec.NewRunner(prog, sched, plan,
				exec.Config{Workers: h.p, Mode: exec.SPMD, Params: k.params, Compiled: exe})
		})
	}
	h.check(err == nil && sched.Dump() == k.dump, "%s: replayed pipeline: schedule differs or %v", k.prog.name, err)
}

// certifyOnce times core.Compile, parse through baseline schedule, checks
// the schedule it produced against the one set-up saw, and times the
// independent certifier on that fresh compilation.
func (h *harness) certifyOnce(k *progState, _ int) {
	var c *core.Compiled
	var err error
	d := h.timeCall("core.Compile", k, func() { c, err = core.Compile(k.prog.source, core.Options{}) })
	h.check(err == nil && c.Schedule.Dump() == k.dump, "%s: core.Compile: schedule differs or %v", k.prog.name, err)
	if err != nil {
		return
	}
	k.add("compile_ms", msOf(d))
	var v core.Verdict
	c0 := linear.Costs()
	mb := allocMB(func() { d = h.timeCall("certify.Certify", k, func() { v = c.Verdict() }) })
	h.check(v.Certified, "%s: schedule not certified: %v", k.prog.name, v.Err)
	k.add("certify_us", usOf(d))
	k.add("certify_alloc_mb", mb)
	k.add("certify_fm_systems", float64(linear.Costs().Sub(c0).Systems))
	certified := 0.0
	if v.Certified {
		certified = 1
	}
	k.add("certified", certified)
}
