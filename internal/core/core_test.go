package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/exec"
	"repro/internal/profile"
	"repro/internal/syncopt"
)

const src = `
program facade
param N, T
real A(N), B(N), s
do k = 1, T
  do i = 2, N - 1
    B(i) = 0.5 * (A(i - 1) + A(i + 1))
  end do
  do i = 2, N - 1
    A(i) = B(i)
  end do
end do
do i = 1, N
  s = s + A(i)
end do
end
`

func TestCompileProducesBothSchedules(t *testing.T) {
	c, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Schedule == nil || c.Baseline == nil || c.Plan == nil || c.Analyzer == nil {
		t.Fatal("incomplete Compiled")
	}
	if c.Baseline.Static().Barriers <= c.Schedule.Static().Barriers {
		t.Errorf("baseline should have more static barriers: base %+v opt %+v",
			c.Baseline.Static(), c.Schedule.Static())
	}
	if len(c.Parallelized.Parallel) != 3 {
		t.Errorf("parallel loops = %d, want 3", len(c.Parallelized.Parallel))
	}
}

// TestCompileCostsBill: the per-compile analysis bill is non-empty, its
// per-phase Fourier-Motzkin systems add up to the total, and the solver
// counts are a function of the program alone — a second compile of the
// same source is billed the same.
func TestCompileCostsBill(t *testing.T) {
	c, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Costs.FMSystems == 0 || c.Costs.Total <= 0 {
		t.Fatalf("Compiled.Costs empty: %+v", c.Costs)
	}
	sys := int64(0)
	for _, p := range c.Costs.Phases {
		sys += p.FMSystems
	}
	if sys != c.Costs.FMSystems {
		t.Errorf("phase FM systems sum %d != total %d", sys, c.Costs.FMSystems)
	}
	again, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := c.Costs, again.Costs
	if a.FMSystems != b.FMSystems || a.VarsEliminated != b.VarsEliminated ||
		a.IneqsGenerated != b.IneqsGenerated || a.Bailouts != b.Bailouts ||
		a.Enumerations != b.Enumerations {
		t.Errorf("second compile billed differently:\n first %+v\nsecond %+v", a, b)
	}
}

func TestCompileSyntaxError(t *testing.T) {
	if _, err := core.Compile("program x\nbogus!!!\nend\n", core.Options{}); err == nil {
		t.Error("syntax error not reported")
	}
}

func TestCompileSemanticError(t *testing.T) {
	_, err := core.Compile("program x\nreal s\ns = q\nend\n", core.Options{})
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("err = %v", err)
	}
}

func TestOptionsPassThrough(t *testing.T) {
	cyc, err := core.Compile(src, core.Options{Decomp: decomp.Cyclic})
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Plan.Kind != decomp.Cyclic {
		t.Error("Decomp option ignored")
	}
	norep, err := core.Compile(src, core.Options{Sync: syncopt.Options{NoReplacement: true}})
	if err != nil {
		t.Fatal(err)
	}
	st := norep.Schedule.Static()
	if st.Neighbors != 0 || st.Counters != 0 {
		t.Errorf("NoReplacement ignored: %+v", st)
	}
}

// TestRunnerModeComesFromSchedule: the schedule a runner runs decides its
// execution model, whatever Config.Mode says. The baseline runs fork-join
// even when asked for SPMD; the optimized schedule runs SPMD with no Mode
// set (Mode's zero value is ForkJoin), and its result carries the verdict
// and its profile the mode of the program that ran.
func TestRunnerModeComesFromSchedule(t *testing.T) {
	c, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		newRunner  func(exec.Config) (*core.Runner, error)
		cfgMode    exec.Mode
		want       exec.Mode
		dispatches bool
	}{
		{"baseline", c.NewBaselineRunner, exec.SPMD, exec.ForkJoin, true},
		{"optimized", c.NewRunner, exec.ForkJoin, exec.SPMD, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.newRunner(exec.Config{Workers: 2, Params: map[string]int64{"N": 16, "T": 1},
				Mode: tc.cfgMode, FixedWidth: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Stats.Dispatches > 0; got != tc.dispatches {
				t.Errorf("%d dispatches, want dispatches %v", res.Stats.Dispatches, tc.dispatches)
			}
			if r.Mode() != tc.want {
				t.Errorf("Mode() = %v, want %v", r.Mode(), tc.want)
			}
			if p := r.Profile(res); p.Mode != tc.want.String() {
				t.Errorf("profile mode %q, want %q", p.Mode, tc.want)
			}
			if tc.want == exec.SPMD {
				if v := c.Verdict(); res.Certify.Certified != v.Certified || res.Certify.Certificate != v.Certificate {
					t.Errorf("result verdict %+v, want the optimized schedule's %+v", res.Certify, v)
				}
				// Fork-join waits are no evidence about the SPMD program,
				// even under the optimized schedule's hash.
				p := r.Profile(res)
				p.Mode = exec.ForkJoin.String()
				if _, _, err := c.Reoptimize(p); !errors.Is(err, profile.ErrIncompatible) {
					t.Errorf("fork-join profile: Reoptimize error %v, want profile.ErrIncompatible", err)
				}
			}
		})
	}
}

func TestScheduleVerifies(t *testing.T) {
	c, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if errs := syncopt.Verify(c.Analyzer, c.Schedule); len(errs) != 0 {
		t.Errorf("verification: %v", errs)
	}
}

func TestWorkersExceedingExtent(t *testing.T) {
	// More workers than iterations: idle workers must not deadlock the
	// counters/neighbor syncs, and results stay exact.
	c, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"N": 5, "T": 2}
	ref, err := c.RunSequential(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{7, 16} {
		r, err := c.NewRunner(exec.Config{Workers: workers, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("P=%d: %v", workers, err)
		}
		if d := exec.ComparableDiff(ref, res.State, c.Prog); d > 1e-9 {
			t.Errorf("P=%d diverged by %g", workers, d)
		}
	}
}

func TestAnalyzerExposed(t *testing.T) {
	c, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kloop := c.Prog.Body[0]
	_ = kloop
	// Spot-check: the analyzer answers Between queries post-compile.
	v := c.Analyzer.Between(c.Prog.Body[:1], c.Prog.Body[1:2], nil, nil)
	if v.Class == comm.ClassNone && len(v.Pairs) != 0 {
		t.Errorf("inconsistent verdict: %v", v)
	}
}

// TestInliningMatchesFlatProgram: the paper says interprocedural analysis
// enlarges SPMD regions; with front-end inlining, a modularized program
// must compile to exactly the same static schedule and produce the same
// results as its hand-flattened form.
func TestInliningMatchesFlatProgram(t *testing.T) {
	modular := `
program m
param N, T
real A(N), B(N)
sub smooth(lo, hi)
  do i = lo, hi
    B(i) = 0.5 * (A(i - 1) + A(i + 1))
  end do
end sub
sub copyback(lo, hi)
  do i = lo, hi
    A(i) = B(i)
  end do
end sub
do k = 1, T
  call smooth(2, N - 1)
  call copyback(2, N - 1)
end do
end
`
	flat := `
program m
param N, T
real A(N), B(N)
do k = 1, T
  do i = 2, N - 1
    B(i) = 0.5 * (A(i - 1) + A(i + 1))
  end do
  do i = 2, N - 1
    A(i) = B(i)
  end do
end do
end
`
	cm, err := core.Compile(modular, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := core.Compile(flat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cm.Schedule.Static() != cf.Schedule.Static() {
		t.Errorf("static schedules differ: modular %+v, flat %+v\nmodular schedule:\n%s",
			cm.Schedule.Static(), cf.Schedule.Static(), cm.Schedule.Dump())
	}
	params := map[string]int64{"N": 40, "T": 4}
	rm, err := cm.NewRunner(exec.Config{Workers: 4, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	resm, err := rm.Run()
	if err != nil {
		t.Fatal(err)
	}
	rf, err := cf.NewRunner(exec.Config{Workers: 4, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	resf, err := rf.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range cm.Prog.Arrays {
		x, y := resm.State.Array(a.Name).Data, resf.State.Array(a.Name).Data
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("modular vs flat results differ at %s[%d]: %g vs %g", a.Name, i, x[i], y[i])
			}
		}
	}
	for name, v := range resm.State.Scalars {
		if w := resf.State.Scalars[name]; v != w {
			t.Errorf("modular vs flat results differ at %s: %g vs %g", name, v, w)
		}
	}
	if resm.Stats.Barriers != resf.Stats.Barriers {
		t.Errorf("dynamic barriers differ: %d vs %d", resm.Stats.Barriers, resf.Stats.Barriers)
	}
}
