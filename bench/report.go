package main

import (
	"math/rand"
	"runtime"
	"time"
)

// passOptions say what one pass over one workload does.
type passOptions struct {
	seed    int64
	seconds float64
	// traced selects the per-layer pass; otherwise the end-to-end pass.
	traced bool
	quick  bool
	// traceDir receives trace.<workload>.json after a traced pass.
	traceDir string
}

// workerCount is P: min(4, nproc). GOMAXPROCS is left alone.
func workerCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// runPass sets a workload up, measures it for opt.seconds and reports the
// pass's metrics: every end-to-end metric from the untraced pass, every
// per-layer metric from the traced one.
func runPass(spec *benchSpec, wl *workload, opt passOptions) (*passResult, error) {
	h := &harness{wl: wl, p: workerCount(), traced: opt.traced, quick: opt.quick,
		rng: rand.New(rand.NewSource(opt.seed)), epoch: time.Now()}
	progs, err := wl.programs(opt.seed)
	if err != nil {
		return nil, err
	}
	if opt.quick {
		var few []program
		for _, p := range progs {
			if p.quick {
				few = append(few, p)
			}
		}
		progs = few
	}
	params := make([]map[string]int64, len(progs))
	for i, p := range progs {
		params[i] = drawParams(h.rng, p)
	}

	// Set-up runs three times and reports the median, so one slow set-up
	// does not read as a regression; the last one's products are measured.
	setups := 3
	if opt.quick {
		setups = 1
	}
	var ks []*progState
	seq := make([][]float64, len(progs))
	for i := 0; i < setups; i++ {
		var err error
		d := h.timeCall("setup", nil, func() { ks, err = h.setUp(progs, params) })
		if err != nil {
			return nil, err
		}
		h.setups = append(h.setups, d.Seconds())
		for j, k := range ks {
			seq[j] = append(seq[j], k.series["seq_ms"]...)
		}
	}
	for j, k := range ks {
		k.series["seq_ms"] = seq[j]
	}

	out := newMetricSet(spec)
	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.traced {
		capacity := parallelCapacity(h.p)
		microBudget := budget / 10
		h.timeCall("microbenchmarks", nil, func() { h.micro(microBudget, out) })
		s := wl.layer
		h.timeCall("measure", nil, func() {
			h.measure(budget-microBudget, ks, []opClass{
				{"pair", s.run, h.runPair},
				{"traced run", s.tracedRun, h.tracedRun},
				{"request pair", s.request, h.requestPair},
				{"replay", s.replay, h.replay},
				{"certify", s.certify, h.certifyOnce},
			})
		})
		h.layerMetrics(ks, out, capacity)
		if opt.traceDir != "" {
			if err := h.writeTrace(opt.traceDir); err != nil {
				return nil, err
			}
		}
	} else {
		// The end-to-end pass spends all its time on the one operation
		// the workload exists for.
		op, series, alloc := opClass{"run", 1, h.runOpt}, "opt_ms", "run_alloc_mb"
		if wl.coldRequest {
			op = opClass{"request", 1, func(k *progState, _ int) { h.request(k, false) }}
			series, alloc = "request_ms", "request_alloc_mb"
		}
		h.measure(budget, ks, []opClass{op})
		out.set("setup_s", median(h.setups))
		out.set("op_ms", geomean(over(ks, series, low)))
		out.set("op_alloc_mb", mean(over(ks, alloc, mean)))
	}
	for _, name := range out.unknown {
		h.check(false, "metric %q is not declared in BENCHMARK.json", name)
	}
	host := h.hostSample()
	res := &passResult{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed,
		Metrics: out.Values, Failures: h.failures, Host: &host}
	for _, k := range ks {
		res.Rows = append(res.Rows, k.row())
	}
	return res, nil
}

// over applies a reduction to one series of every program.
func over(ks []*progState, series string, f func([]float64) float64) []float64 {
	out := make([]float64, len(ks))
	for i, k := range ks {
		out[i] = f(k.series[series])
	}
	return out
}

// ratio is a/b, and 0 when there is no base to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (h *harness) layerMetrics(ks []*progState, out *metricSet, capacity float64) {
	// Timings of single layers: lower decile per program, geometric mean over the
	// programs.
	for _, name := range []string{
		"parser.parse_us", "lint.source_us", "deps.context_us", "parallel.parallelize_us",
		"decomp.build_us", "region.classify_us", "irreg.analyze_us", "syncopt.build_us",
		"syncopt.baseline_us", "compile.lower_us", "exec.new_runner_us",
	} {
		out.set(name, geomean(over(ks, name, low)))
	}
	out.set("core.compile_ms", geomean(over(ks, "compile_ms", low)))
	out.set("core.request_ms", geomean(over(ks, "request_ms", low)))
	out.set("core.request_alloc_mb", mean(over(ks, "request_alloc_mb", mean)))
	out.set("certify.certify_us", geomean(over(ks, "certify_us", low)))
	out.set("certify.alloc_mb", mean(over(ks, "certify_alloc_mb", mean)))
	out.set("certify.certified_share", mean(over(ks, "certified", mean)))
	out.set("certify.fm_systems", sum(over(ks, "certify_fm_systems", last)))

	// Exact counts, summed over the programs.
	count := func(name string, f func(k *progState) int64) {
		t := int64(0)
		for _, k := range ks {
			t += f(k)
		}
		out.set(name, float64(t))
	}
	count("linear.fm_systems", func(k *progState) int64 { return k.fm.Systems })
	count("linear.vars_eliminated", func(k *progState) int64 { return k.fm.VarsEliminated })
	count("linear.ineqs_generated", func(k *progState) int64 { return k.fm.IneqsGenerated })
	count("linear.bailouts", func(k *progState) int64 { return k.fm.Bailouts })
	count("linear.enumerations", func(k *progState) int64 { return k.fm.Enumerations })
	count("syncopt.static_barriers", func(k *progState) int64 { return int64(k.static.Barriers) })
	count("syncopt.static_counters", func(k *progState) int64 { return int64(k.static.Counters) })
	count("syncopt.static_neighbors", func(k *progState) int64 { return int64(k.static.Neighbors) })
	count("dyn_barriers", func(k *progState) int64 { return k.optStats.Barriers })
	count("spmdrt.barriers", func(k *progState) int64 { return k.optStats.Barriers })
	count("spmdrt.counter_incrs", func(k *progState) int64 { return k.optStats.CounterIncrs })
	count("spmdrt.counter_waits", func(k *progState) int64 { return k.optStats.CounterWaits })
	count("spmdrt.neighbor_waits", func(k *progState) int64 { return k.optStats.NeighborWaits })
	count("spmdrt.dispatches", func(k *progState) int64 { return k.optStats.Dispatches })
	opt := over(ks, "opt_ms", low)
	density := make([]float64, len(ks))
	for i, k := range ks {
		s := k.optStats
		density[i] = ratio(float64(s.Barriers+s.CounterIncrs+s.CounterWaits+s.NeighborWaits), opt[i])
	}
	out.set("spmdrt.events_per_ms", mean(density))
	var scans, conflicts, scanNS, baseBarriers, optBarriers int64
	for _, k := range ks {
		for _, s := range k.inspector {
			scans += s.Scans
			conflicts += s.Conflicts
			scanNS += s.ScanNS
		}
		baseBarriers += int64(k.baseStatic.Barriers)
		optBarriers += int64(k.static.Barriers)
	}
	out.set("exec.inspector_scans", float64(scans))
	out.set("exec.inspector_conflicts", float64(conflicts))
	out.set("exec.inspector_scan_ms", float64(scanNS)/1e6)
	out.set("syncopt.barrier_reduction_pct", 100*(1-ratio(float64(optBarriers), float64(baseBarriers))))
	out.set("fail_share", ratio(float64(h.failed), float64(h.attempted)))

	// The untraced runs of this pass: distribution, baseline, throughput.
	out.set("exec.run_ms", geomean(opt))
	out.set("exec.run_alloc_mb", mean(over(ks, "run_alloc_mb", mean)))
	out.set("exec.run_p50_ms", geomean(over(ks, "opt_ms", median)))
	out.set("exec.run_p90_ms", geomean(over(ks, "opt_ms", func(xs []float64) float64 { return quantile(xs, 0.90) })))
	out.set("exec.run_samples", sum(over(ks, "opt_ms", func(xs []float64) float64 { return float64(len(xs)) })))
	out.set("exec.slow_run_share", mean(over(ks, "opt_ms", func(xs []float64) float64 {
		limit, slow := 2*low(xs), 0
		for _, x := range xs {
			if x > limit {
				slow++
			}
		}
		return ratio(float64(slow), float64(len(xs)))
	})))
	base := over(ks, "base_ms", low)
	seq := over(ks, "seq_ms", low)
	baseOverOpt := make([]float64, len(ks))
	parOverSeq := make([]float64, len(ks))
	rate := make([]float64, len(ks))
	for i, k := range ks {
		baseOverOpt[i] = ratio(base[i], opt[i])
		parOverSeq[i] = ratio(opt[i], seq[i])
		rate[i] = ratio(float64(k.assigns), opt[i]/1e3)
	}
	out.set("exec.base_run_ms", geomean(base))
	out.set("exec.base_over_opt", geomean(baseOverOpt))
	out.set("interp.seq_ms", geomean(seq))
	out.set("exec.par_over_seq", geomean(parOverSeq))
	out.set("exec.assigns_per_s", geomean(rate))

	// The traced runs: where worker time went.
	out.set("exec.compute_ms", geomean(over(ks, "compute_ms", low)))
	out.set("exec.sync_wait_ms", mean(over(ks, "wait_ms", low)))
	share := make([]float64, len(ks))
	for i, k := range ks {
		share[i] = ratio(sum(k.series["wait_ms"]), sum(k.series["span_ms"]))
	}
	out.set("exec.sync_share", mean(share))
	out.set("spmdrt.wait_ms.barrier", mean(over(ks, "wait_barrier_ms", low)))
	out.set("spmdrt.wait_ms.counter", mean(over(ks, "wait_counter_ms", low)))
	out.set("spmdrt.wait_ms.neighbor", mean(over(ks, "wait_neighbor_ms", low)))
	out.set("synctrace.trace_overhead_pct",
		100*(ratio(geomean(over(ks, "traced_ms", low)), geomean(opt))-1))

	// The observed requests: lifecycle phases and what observing costs.
	for _, phase := range []string{"lint", "compile", "certify", "setup", "lease", "team_run", "report"} {
		out.set("core.phase_ms."+phase, geomean(over(ks, "phase_"+phase+"_ms", low)))
	}
	out.set("telemetry.span_overhead_pct",
		100*(ratio(geomean(over(ks, "request_obs_ms", low)), geomean(over(ks, "request_ms", low)))-1))

	// The host during this pass.
	host := h.hostSample()
	out.set("harness.spin_q1_us", host.SpinQ1US)
	out.set("harness.host_noise_pct", host.NoisePct)
	out.set("harness.parallel_capacity", capacity)
}

// hostSample summarizes the calibration samples of this pass.
func (h *harness) hostSample() hostSample {
	return hostSample{SpinQ1US: q1(h.spin),
		NoisePct: 100 * ratio(quantile(h.spin, 0.75)-quantile(h.spin, 0.25), median(h.spin))}
}

// row is the per-program section of the result file.
func (k *progState) row() row {
	r := row{Program: k.prog.name, Params: k.params, Times: map[string]dist{}, Counts: map[string]int64{
		"assignments":         k.assigns,
		"opt.barriers":        k.optStats.Barriers,
		"opt.counter_incrs":   k.optStats.CounterIncrs,
		"opt.counter_waits":   k.optStats.CounterWaits,
		"opt.neighbor_waits":  k.optStats.NeighborWaits,
		"base.barriers":       k.baseStats.Barriers,
		"base.dispatches":     k.baseStats.Dispatches,
		"static.barriers":     int64(k.static.Barriers),
		"static.counters":     int64(k.static.Counters),
		"static.neighbors":    int64(k.static.Neighbors),
		"static.inspectors":   int64(k.static.Inspectors),
		"static.base_barrier": int64(k.baseStatic.Barriers),
		"fm.systems":          k.fm.Systems,
	}}
	for name, xs := range k.series {
		r.Times[name] = distOf(xs)
	}
	return r
}
