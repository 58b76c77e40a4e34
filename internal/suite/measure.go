package suite

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/region"
	"repro/internal/spmdrt"
	"repro/internal/syncopt"
)

// Metrics holds everything the tables need for one kernel.
type Metrics struct {
	Kernel Kernel

	// Static program characteristics (Table 1).
	Lines         int
	ParallelLoops int
	SeqRegions    int // sequential loops forming nested SPMD regions
	Replicated    int
	Guarded       int

	// Static synchronization sites (Table 2).
	StaticBase syncopt.StaticCounts
	StaticOpt  syncopt.StaticCounts

	// Dynamic synchronization (Table 3) at the standard input.
	Workers int
	DynBase spmdrt.StatsSnapshot
	DynOpt  spmdrt.StatsSnapshot

	// Inspector holds the optimized run's per-site inspector statistics,
	// keyed by 1-based sync-site id; nil when the schedule has no
	// inspector sites.
	Inspector map[int]exec.InspectorSite

	// Correctness cross-check against the sequential interpreter.
	MaxDiff float64
}

// BarrierReduction returns the fraction of dynamic barriers eliminated,
// in [0,1]; a baseline of zero barriers reports zero reduction.
func (m Metrics) BarrierReduction() float64 {
	if m.DynBase.Barriers == 0 {
		return 0
	}
	return 1 - float64(m.DynOpt.Barriers)/float64(m.DynBase.Barriers)
}

// MeasureOptions configure a measurement run.
type MeasureOptions struct {
	Workers int
	Barrier spmdrt.BarrierKind
	// Sync forwards ablation knobs to the optimizer.
	Sync syncopt.Options
	// Params overrides the kernel's standard input when non-nil.
	Params map[string]int64
}

// Measure compiles and runs one kernel in both baseline and optimized
// form, verifying both against the sequential interpreter.
func Measure(k Kernel, opt MeasureOptions) (Metrics, error) {
	if opt.Workers <= 0 {
		opt.Workers = 8
	}
	params := k.Params
	if opt.Params != nil {
		params = opt.Params
	}
	m := Metrics{Kernel: k, Workers: opt.Workers}

	c, err := core.Compile(k.Source, core.Options{Sync: opt.Sync})
	if err != nil {
		return m, fmt.Errorf("%s: compile: %w", k.Name, err)
	}
	if errs := syncopt.Verify(c.Analyzer, c.Schedule); len(errs) > 0 {
		return m, fmt.Errorf("%s: schedule verification failed: %v", k.Name, errs[0])
	}
	m.Lines = countLines(k.Source)
	for _, mode := range c.Schedule.Modes {
		switch mode {
		case region.ModeParallel:
			m.ParallelLoops++
		case region.ModeSeqLoop:
			m.SeqRegions++
		case region.ModeReplicated:
			m.Replicated++
		case region.ModeGuarded:
			m.Guarded++
		}
	}
	m.StaticBase = c.Baseline.Static()
	m.StaticOpt = c.Schedule.Static()

	ref, err := c.RunSequential(params)
	if err != nil {
		return m, fmt.Errorf("%s: sequential: %w", k.Name, err)
	}

	base, err := c.NewBaselineRunner(exec.Config{
		Workers: opt.Workers, Barrier: opt.Barrier, Params: params, FixedWidth: true})
	if err != nil {
		return m, err
	}
	bres, err := base.Run()
	if err != nil {
		return m, fmt.Errorf("%s: baseline run: %w", k.Name, err)
	}
	if d := exec.ComparableDiff(ref, bres.State, c.Prog); d > k.Tol {
		return m, fmt.Errorf("%s: baseline diverges from sequential by %g", k.Name, d)
	}
	m.DynBase = bres.Stats

	optr, err := c.NewRunner(exec.Config{
		Workers: opt.Workers, Barrier: opt.Barrier, Params: params, FixedWidth: true})
	if err != nil {
		return m, err
	}
	ores, err := optr.Run()
	if err != nil {
		return m, fmt.Errorf("%s: optimized run: %w", k.Name, err)
	}
	m.MaxDiff = exec.ComparableDiff(ref, ores.State, c.Prog)
	if m.MaxDiff > k.Tol {
		return m, fmt.Errorf("%s: optimized diverges from sequential by %g\nschedule:\n%s",
			k.Name, m.MaxDiff, c.Schedule.Dump())
	}
	m.DynOpt = ores.Stats
	m.Inspector = ores.Inspector
	return m, nil
}

// MeasureAll measures every suite kernel.
func MeasureAll(opt MeasureOptions) ([]Metrics, error) {
	var out []Metrics
	for _, k := range Kernels() {
		m, err := Measure(k, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func countLines(src string) int {
	n := 0
	for _, c := range src {
		if c == '\n' {
			n++
		}
	}
	return n
}
