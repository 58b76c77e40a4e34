// Package core is the library facade: it runs the full compilation
// pipeline of the paper — parse, dependence analysis, parallelization,
// computation partitioning, SPMD region construction, communication
// analysis and greedy barrier elimination — and hands back everything
// needed to execute or inspect the result.
//
//	c, err := core.Compile(src, core.Options{})
//	runner, err := c.NewRunner(exec.Config{Workers: 8})
//	res, err := runner.Run()
//
// Compile produces both the optimized schedule and the fork-join baseline
// schedule so callers can reproduce the paper's base-vs-optimized
// comparisons from a single compilation. Each schedule names its executor
// (syncopt.Schedule.Baseline): NewRunner runs the optimized one SPMD,
// NewBaselineRunner the baseline fork-join.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/compile"
	"repro/internal/decomp"
	"repro/internal/deps"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irreg"
	"repro/internal/linear"
	"repro/internal/lint"
	"repro/internal/parallel"
	"repro/internal/parser"
	"repro/internal/region"
	"repro/internal/remarks"
	"repro/internal/syncopt"
)

// Options configure the pipeline.
type Options struct {
	// Decomp selects the data/computation distribution (default Block).
	Decomp decomp.Kind
	// Sync are the synchronization-optimizer options (ablation knobs).
	Sync syncopt.Options
}

// minParam is the lower bound the analyses assume for every symbolic
// parameter: parameters are positive integers (docs/DSL.md).
const minParam = 1

// LintError reports the lint findings that aborted a request
// (CompileOptions.Lint).
type LintError struct {
	Diags []lint.Diagnostic
}

func (e *LintError) Error() string {
	first := e.Diags[0]
	for _, d := range e.Diags {
		if d.Severity >= lint.SevWarning {
			first = d
			break
		}
	}
	return fmt.Sprintf("lint: %d findings, first: %s", len(e.Diags), first.Format("src"))
}

// Compiled is the result of running the pipeline on one program.
type Compiled struct {
	Prog *ir.Program
	// Options are the pipeline options the program was compiled with.
	Options Options
	// Parallelized reports what the parallelizer did.
	Parallelized *parallel.Result
	// Plan is the computation partition of every parallel loop.
	Plan *decomp.Plan
	// Facts is the irregular-access value lattice (index-array ranges,
	// contents, monotonicity) the communication analysis consulted.
	Facts *irreg.Facts
	// Analyzer exposes the communication analysis for inspection.
	Analyzer *comm.Analyzer
	// Schedule is the optimized synchronization schedule.
	Schedule *syncopt.Schedule
	// Baseline is the fork-join schedule (one barrier per parallel
	// loop), for base-vs-optimized comparisons.
	Baseline *syncopt.Schedule
	// Costs is this compilation's analysis bill: wall time and
	// Fourier-Motzkin solver work per pipeline phase.
	Costs remarks.Costs

	// Memoized per-compilation artifacts: the closure lowering (shared by
	// every runner built from this compilation) and the certify verdicts
	// of the two schedules: the optimized one's first, the baseline's
	// second (verdictOf).
	exeOnce  sync.Once
	exe      *compile.Prog
	exeErr   error
	verOnce  [2]sync.Once
	verdicts [2]Verdict
}

// Compile parses DSL source and runs the full pipeline.
func Compile(src string, opt Options) (*Compiled, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileProgram(prog, opt), nil
}

// CompileProgram runs the pipeline on an already-built program. The
// program is mutated in place (parallel markings, privatization).
func CompileProgram(prog *ir.Program, opt Options) *Compiled {
	// Each phase is timed and its Fourier-Motzkin work attributed by
	// diffing the solver's global counters around it; the per-compile
	// bill lands on Compiled.Costs.
	var costs remarks.Costs
	start := time.Now()
	before := linear.Costs()
	phase := func(name string, f func()) {
		t0 := time.Now()
		c0 := linear.Costs()
		f()
		costs.Phases = append(costs.Phases, remarks.Phase{
			Name:      name,
			Wall:      time.Since(t0),
			FMSystems: linear.Costs().Sub(c0).Systems,
		})
	}

	var ctx *deps.Context
	var par *parallel.Result
	var plan *decomp.Plan
	var info *region.Info
	var facts *irreg.Facts
	var an *comm.Analyzer
	var sched, base *syncopt.Schedule
	phase("deps", func() { ctx = deps.NewContext(prog, minParam) })
	phase("parallelize", func() { par = parallel.Parallelize(ctx) })
	phase("decomp", func() { plan = decomp.Build(prog, opt.Decomp) })
	phase("region", func() { info = region.Classify(prog, plan.Wavefront) })
	phase("irreg", func() { facts = irreg.Analyze(prog, info, minParam) })
	phase("syncopt", func() {
		an = comm.New(ctx, plan, info)
		an.Facts = facts
		sched = syncopt.Build(an, opt.Sync)
	})
	phase("baseline", func() { base = syncopt.Build(an, syncopt.Options{Baseline: true}) })

	delta := linear.Costs().Sub(before)
	costs.Total = time.Since(start)
	costs.FMSystems = delta.Systems
	costs.VarsEliminated = delta.VarsEliminated
	costs.IneqsGenerated = delta.IneqsGenerated
	costs.Bailouts = delta.Bailouts
	costs.Enumerations = delta.Enumerations

	return &Compiled{
		Prog:         prog,
		Options:      opt,
		Parallelized: par,
		Plan:         plan,
		Facts:        facts,
		Analyzer:     an,
		Schedule:     sched,
		Baseline:     base,
		Costs:        costs,
	}
}

// Remarks returns the optimized schedule's optimization-remark set: one
// remark per sync site, in the global site numbering.
func (c *Compiled) Remarks() *remarks.Set { return c.Schedule.Remarks() }

// Exe returns the memoized closure lowering of the program. Every
// uninstrumented runner built from this compilation shares it, so the
// program is lowered once per Compile, not once per runner.
func (c *Compiled) Exe() (*compile.Prog, error) {
	c.exeOnce.Do(func() {
		c.exe, c.exeErr = compile.Compile(c.Prog, nil, compile.Options{})
	})
	return c.exe, c.exeErr
}

// NewRunner builds an SPMD runner for the optimized schedule.
func (c *Compiled) NewRunner(cfg exec.Config) (*Runner, error) {
	return c.newRunner(c.Schedule, cfg)
}

// NewBaselineRunner builds a fork-join runner for the baseline schedule.
func (c *Compiled) NewBaselineRunner(cfg exec.Config) (*Runner, error) {
	return c.newRunner(c.Baseline, cfg)
}

func (c *Compiled) newRunner(sched *syncopt.Schedule, cfg exec.Config) (*Runner, error) {
	// Share the cached lowering when it applies (the sanitizer needs an
	// instrumented lowering, which exec compiles per runner).
	if !cfg.Sanitize && cfg.Compiled == nil {
		exe, err := c.Exe()
		if err != nil {
			return nil, err
		}
		cfg.Compiled = exe
	}
	er, err := exec.NewRunner(c.Prog, sched, c.Plan, cfg)
	if err != nil {
		return nil, err
	}
	return &Runner{Runner: er, c: c, sched: sched}, nil
}

// RunSequential executes the program with the reference interpreter on a
// fresh deterministically-seeded state.
func (c *Compiled) RunSequential(params map[string]int64) (*interp.State, error) {
	return interp.Run(c.Prog, params)
}
