package exec_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/exec"
	"repro/internal/spmdrt"
	"repro/internal/syncopt"
)

// kernels exercised end-to-end: every entry is run sequentially, under the
// fork-join baseline and under the optimized SPMD schedule, and the final
// states must agree (within a reduction-roundoff tolerance).
var kernels = []struct {
	name   string
	src    string
	params map[string]int64
	tol    float64
}{
	{
		name: "jacobi1d",
		src: `
program jacobi1d
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
`,
		params: map[string]int64{"N": 64, "T": 5},
	},
	{
		name: "saxpy",
		src: `
program saxpy
param N
real X(N), Y(N), a
a = 2.5
do i = 1, N
  Y(i) = a * X(i) + Y(i)
end do
end
`,
		params: map[string]int64{"N": 101},
	},
	{
		name: "reduction",
		src: `
program red
param N
real A(N), B(N), s, alpha
do i = 1, N
  s = s + A(i) * A(i)
end do
alpha = s / N
do i = 1, N
  B(i) = A(i) * alpha
end do
end
`,
		params: map[string]int64{"N": 77},
		tol:    1e-12,
	},
	{
		name: "pivotBroadcast",
		src: `
program pivot
param N
real A(N, N), D(N)
do k = 2, N
  D(k) = A(1, k - 1) * 0.5
  parallel do i = 1, N
    A(i, k) = A(i, k) + D(k)
  end do
end do
end
`,
		params: map[string]int64{"N": 24},
	},
	{
		name: "privateTemp",
		src: `
program ptmp
param N
real A(N), B(N), t
do i = 1, N
  t = A(i) * A(i)
  B(i) = t + 1.0
end do
end
`,
		params: map[string]int64{"N": 50},
	},
	{
		name: "guardedBoundary",
		src: `
program gb
param N
real A(N), B(N)
A(1) = 0.0
A(N) = 0.0
do i = 2, N - 1
  B(i) = A(i - 1) + A(i) + A(i + 1)
end do
B(1) = A(1)
B(N) = A(N)
end
`,
		params: map[string]int64{"N": 40},
	},
	{
		name: "twoDstencil",
		src: `
program st2
param N, T
real A(N, N), B(N, N)
do k = 1, T
  do i = 2, N - 1
    do j = 2, N - 1
      B(i, j) = 0.25 * (A(i - 1, j) + A(i + 1, j) + A(i, j - 1) + A(i, j + 1))
    end do
  end do
  do i = 2, N - 1
    do j = 2, N - 1
      A(i, j) = B(i, j)
    end do
  end do
end do
end
`,
		params: map[string]int64{"N": 24, "T": 3},
	},
	{
		name: "conditionalRedBlack",
		src: `
program rb
param N, T
real A(N)
do k = 1, T
  do i = 2, N - 1
    if mod(i, 2) == 0 then
      A(i) = 0.5 * (A(i - 1) + A(i + 1))
    end if
  end do
  do i = 2, N - 1
    if mod(i, 2) == 1 then
      A(i) = 0.5 * (A(i - 1) + A(i + 1))
    end if
  end do
end do
end
`,
		params: map[string]int64{"N": 33, "T": 4},
	},
}

func TestKernelsEndToEnd(t *testing.T) {
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			c, err := core.Compile(k.src, core.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			ref, err := c.RunSequential(k.params)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			for _, workers := range []int{1, 2, 3, 4, 8} {
				base, err := c.NewBaselineRunner(exec.Config{Workers: workers, Params: k.params})
				if err != nil {
					t.Fatal(err)
				}
				bres, err := base.Run()
				if err != nil {
					t.Fatalf("fork-join P=%d: %v", workers, err)
				}
				if d := exec.ComparableDiff(ref, bres.State, c.Prog); d > k.tol {
					t.Fatalf("fork-join P=%d diverges: diff=%g", workers, d)
				}
				opt, err := c.NewRunner(exec.Config{Workers: workers, Params: k.params})
				if err != nil {
					t.Fatal(err)
				}
				ores, err := opt.Run()
				if err != nil {
					t.Fatalf("spmd P=%d: %v", workers, err)
				}
				if d := exec.ComparableDiff(ref, ores.State, c.Prog); d > k.tol {
					t.Fatalf("spmd P=%d diverges: diff=%g\nschedule:\n%s",
						workers, d, c.Schedule.Dump())
				}
				for _, side := range []struct {
					r   *core.Runner
					res *core.Result
				}{{base, bres}, {opt, ores}} {
					if !exec.TakesTeam(side.r.Runner) && side.res.Stats.String() != (spmdrt.StatsSnapshot{}).String() {
						t.Errorf("P=%d: width-1 %s run counts %s, want no synchronization",
							workers, side.r.Mode(), side.res.Stats)
					}
				}
				if workers == 1 {
					continue
				}
				ob, bb := ores.Stats.Barriers, bres.Stats.Barriers
				if !exec.TakesTeam(opt.Runner) || !exec.TakesTeam(base.Runner) {
					// A width-1 run counts no barrier: compare the two
					// schedules on teams of all the workers.
					cfg := exec.Config{Workers: workers, Params: k.params, FixedWidth: true}
					ob, bb = teamBarriers(t, c.NewRunner, cfg), teamBarriers(t, c.NewBaselineRunner, cfg)
				}
				if ob > bb {
					t.Errorf("P=%d: optimized barriers %d > baseline %d", workers, ob, bb)
				}
			}
		})
	}
}

// teamBarriers is the number of barriers one run of newRunner(cfg) counts.
func teamBarriers(t *testing.T, newRunner func(exec.Config) (*core.Runner, error), cfg exec.Config) int64 {
	t.Helper()
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("%s P=%d on a team: %v", r.Mode(), cfg.Workers, err)
	}
	return res.Stats.Barriers
}

func TestJacobiDynamicCounts(t *testing.T) {
	k := kernels[0] // jacobi1d: T=5, two parallel loops per iteration
	c, err := core.Compile(k.src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := c.NewBaselineRunner(exec.Config{Workers: 4, Params: k.params, FixedWidth: true})
	bres, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: one join barrier per parallel loop execution = 2*T.
	if got := bres.Stats.Barriers; got != 10 {
		t.Errorf("baseline barriers = %d, want 10", got)
	}
	if got := bres.Stats.Dispatches; got != 10 {
		t.Errorf("baseline dispatches = %d, want 10", got)
	}
	opt, _ := c.NewRunner(exec.Config{Workers: 4, Params: k.params, FixedWidth: true})
	ores, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := ores.Stats.Barriers; got != 0 {
		t.Errorf("optimized barriers = %d, want 0 (all replaced by neighbor sync)\n%s",
			got, c.Schedule.Dump())
	}
	if ores.Stats.NeighborWaits == 0 {
		t.Error("expected neighbor waits in optimized run")
	}
	requireNarrowedRunsNoSync(t, c, exec.Config{Workers: 4, Params: k.params})
}

// requireNarrowedRunsNoSync requires the optimized and the fork-join runner
// of c under cfg to narrow to one worker and their runs to count no
// synchronization: a width-1 run has no team to synchronize.
func requireNarrowedRunsNoSync(t *testing.T, c *core.Compiled, cfg exec.Config) {
	t.Helper()
	for _, newRunner := range []func(exec.Config) (*core.Runner, error){c.NewRunner, c.NewBaselineRunner} {
		r, err := newRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Width() != 1 {
			t.Fatalf("%s runner not narrowed: %v", r.Mode(), r.WidthDecision())
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.String() != (spmdrt.StatsSnapshot{}).String() || len(res.Stats.PerSite) != 0 {
			t.Errorf("narrowed %s run counts %s (per site %v), want no synchronization",
				r.Mode(), res.Stats, res.Stats.PerSite)
		}
	}
}

func TestPivotCounterCounts(t *testing.T) {
	k := kernels[3]
	c, err := core.Compile(k.src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := c.NewRunner(exec.Config{Workers: 4, Params: k.params, FixedWidth: true})
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Barriers != 0 {
		t.Errorf("pivot kernel barriers = %d, want 0\n%s", res.Stats.Barriers, c.Schedule.Dump())
	}
	// One counter increment per iteration of k (master produces D(k)).
	if res.Stats.CounterIncrs != int64(k.params["N"]-1) {
		t.Errorf("counter increments = %d, want %d", res.Stats.CounterIncrs, k.params["N"]-1)
	}
	requireNarrowedRunsNoSync(t, c, exec.Config{Workers: 4, Params: k.params})
}

func TestBarrierKindsAgree(t *testing.T) {
	k := kernels[2] // reduction uses a real barrier
	c, err := core.Compile(k.src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.RunSequential(k.params)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []spmdrt.BarrierKind{spmdrt.Central, spmdrt.Tree, spmdrt.Dissemination} {
		r, _ := c.NewRunner(exec.Config{Workers: 6, Params: k.params, Barrier: kind})
		res, err := r.Run()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if d := exec.ComparableDiff(ref, res.State, c.Prog); d > 1e-12 {
			t.Errorf("%v barrier diverges: %g", kind, d)
		}
	}
}

func TestAblationsStillCorrect(t *testing.T) {
	k := kernels[6] // 2D stencil
	ablations := map[string]core.Options{
		"noReplacement": {Sync: syncopt.Options{NoReplacement: true}},
		"noMerging":     {Sync: syncopt.Options{NoMerging: true}},
		"cyclic":        {Decomp: decomp.Cyclic},
	}
	ref, err := core.Compile(k.src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refState, err := ref.RunSequential(k.params)
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range ablations {
		name, opt := name, opt
		t.Run(name, func(t *testing.T) {
			c, err := core.Compile(k.src, opt)
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.NewRunner(exec.Config{Workers: 5, Params: k.params})
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if d := exec.ComparableDiff(refState, res.State, c.Prog); d > 0 {
				t.Errorf("%s diverges: %g\n%s", name, d, c.Schedule.Dump())
			}
		})
	}
}

func TestRunnerValidatesWorkers(t *testing.T) {
	c, err := core.Compile(kernels[1].src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewRunner(exec.Config{Workers: 0, Params: kernels[1].params}); err == nil {
		t.Error("Workers=0 accepted")
	}
}

func TestMissingParamFails(t *testing.T) {
	c, err := core.Compile(kernels[1].src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewRunner(exec.Config{Workers: 2, Params: nil})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Error("missing params accepted")
	}
}

// TestReductionsAreReproducible: reductions fold in rank order, so repeated
// runs of a reduction at one team size give the same bits.
func TestReductionsAreReproducible(t *testing.T) {
	k := kernels[2] // reduction kernel
	c, err := core.Compile(k.src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewRunner(exec.Config{Workers: 7, Params: k.params})
	if err != nil {
		t.Fatal(err)
	}
	var first float64
	for i := 0; i < 10; i++ {
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.State.Scalars["s"]; i == 0 {
			first = got
		} else if math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("run %d: reduction %v, first run %v", i, got, first)
		}
	}
}
