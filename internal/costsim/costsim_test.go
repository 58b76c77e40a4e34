package costsim_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costsim"
	"repro/internal/exec"
	"repro/internal/suite"
	"repro/internal/syncopt"
)

func compile(t *testing.T, name string) (*core.Compiled, map[string]int64) {
	t.Helper()
	k, err := suite.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c, k.Params
}

// TestSyncCountsMatchExecutor cross-validates the simulator against the
// real runtime: both replay the step program syncopt.Lower builds, so for
// every kernel, P and schedule — the optimized one under SPMD, the
// baseline under fork-join — the simulated numbers of barriers, counter
// increments and dispatches must equal the dynamic counts the executor
// records. An irregular kernel's optimized schedule has inspector sites,
// which the simulator refuses with an *InspectorError naming one.
//
// It is a counts check, not an oracle: both clocks read one lowering, so a
// wrong step or poster set in syncopt.Lower moves them together. That the
// lowered steps order every flow is certify's proof (certify.Analysis.Check
// over core.ToCertify of the same steps).
func TestSyncCountsMatchExecutor(t *testing.T) {
	for _, k := range append(suite.Kernels(), suite.IrregularKernels()...) {
		t.Run(k.Name, func(t *testing.T) {
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, P := range []int{2, 4, 8} {
				for _, leg := range []struct {
					label     string
					sched     *syncopt.Schedule
					newRunner func(exec.Config) (*core.Runner, error)
				}{{"opt", c.Schedule, c.NewRunner}, {"base", c.Baseline, c.NewBaselineRunner}} {
					sched, newRunner, label := leg.sched, leg.newRunner, leg.label
					sim, err := costsim.Simulate(sched, c.Plan, k.Params, P, costsim.SharedMemory())
					var insp *costsim.InspectorError
					if wantInsp := sched.Static().Inspectors > 0; errors.As(err, &insp) || wantInsp {
						if insp == nil || !wantInsp || sched.Boundaries()[insp.Site-1].Class != comm.ClassInspector {
							t.Errorf("P=%d %s: %v, want an *InspectorError naming an inspector site", P, label, err)
						}
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					r, err := newRunner(exec.Config{Workers: P, Params: k.Params, FixedWidth: true})
					if err != nil {
						t.Fatal(err)
					}
					res, err := r.Run()
					if err != nil {
						t.Fatal(err)
					}
					got := [3]int64{sim.Barriers, sim.CounterIncrs, sim.Dispatches}
					want := [3]int64{res.Stats.Barriers, res.Stats.CounterIncrs, res.Stats.Dispatches}
					if got != want {
						t.Errorf("P=%d %s: sim barriers/counter incrs/dispatches %v, exec %v", P, label, got, want)
					}
				}
			}
		})
	}
}

// TestWorkConservation: total computed work must not depend on P for SPMD
// (slices exactly tile the iteration space).
func TestWorkConservation(t *testing.T) {
	c, params := compile(t, "jacobi2d")
	var ref float64
	for _, p := range []int{1, 2, 4, 8, 16} {
		r, err := costsim.Simulate(c.Schedule, c.Plan, params, p, costsim.SharedMemory())
		if err != nil {
			t.Fatal(err)
		}
		if p == 1 {
			ref = r.Work
			continue
		}
		if r.Work != ref {
			t.Errorf("P=%d: work %v != P=1 work %v", p, r.Work, ref)
		}
	}
}

// TestOptimizedBeatsBaseline: under 1995-style costs the optimized
// schedule must predict a shorter makespan than fork-join for
// communication-light kernels at P=8, and the gap must widen under
// software-DSM costs — the paper's central performance claim.
func TestOptimizedBeatsBaseline(t *testing.T) {
	for _, name := range []string{"jacobi1d", "shallow", "tred2like", "pipeline"} {
		name := name
		t.Run(name, func(t *testing.T) {
			c, params := compile(t, name)
			const P = 8
			shm := costsim.SharedMemory()
			dsm := costsim.SoftwareDSM()
			base, err := costsim.Simulate(c.Baseline, c.Plan, params, P, shm)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := costsim.Simulate(c.Schedule, c.Plan, params, P, shm)
			if err != nil {
				t.Fatal(err)
			}
			if opt.Makespan >= base.Makespan {
				t.Errorf("shared-memory: optimized %v >= baseline %v", opt.Makespan, base.Makespan)
			}
			baseDSM, err := costsim.Simulate(c.Baseline, c.Plan, params, P, dsm)
			if err != nil {
				t.Fatal(err)
			}
			optDSM, err := costsim.Simulate(c.Schedule, c.Plan, params, P, dsm)
			if err != nil {
				t.Fatal(err)
			}
			gainSHM := base.Makespan / opt.Makespan
			gainDSM := baseDSM.Makespan / optDSM.Makespan
			if gainDSM <= gainSHM {
				t.Errorf("DSM gain %.3f should exceed shared-memory gain %.3f", gainDSM, gainSHM)
			}
		})
	}
}

// TestPipelineStagger: the pipeline kernel's loop-bottom neighbor sync
// must let the simulated SPMD version dramatically outrun a barrier-per-
// step baseline under DSM costs.
func TestPipelineStagger(t *testing.T) {
	c, params := compile(t, "pipeline")
	const P = 16
	base, err := costsim.Simulate(c.Baseline, c.Plan, params, P, costsim.SoftwareDSM())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := costsim.Simulate(c.Schedule, c.Plan, params, P, costsim.SoftwareDSM())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Makespan*2 > base.Makespan {
		t.Errorf("pipelining gain too small: base %v, opt %v", base.Makespan, opt.Makespan)
	}
}

// TestSpeedupGrowsWithP for an embarrassingly stencil kernel under the
// optimized schedule.
func TestSpeedupGrowsWithP(t *testing.T) {
	c, params := compile(t, "jacobi2d")
	prev := 0.0
	for _, p := range []int{1, 2, 4, 8} {
		r, err := costsim.Simulate(c.Schedule, c.Plan, params, p, costsim.SharedMemory())
		if err != nil {
			t.Fatal(err)
		}
		sp := r.Speedup()
		if sp < prev {
			t.Errorf("P=%d: speedup %v dropped below %v", p, sp, prev)
		}
		prev = sp
	}
	if prev < 4 {
		t.Errorf("P=8 speedup %v too low for a stencil", prev)
	}
}

func TestSimulateValidation(t *testing.T) {
	c, params := compile(t, "jacobi1d")
	if _, err := costsim.Simulate(c.Schedule, c.Plan, params, 0, costsim.SharedMemory()); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := costsim.Simulate(c.Schedule, c.Plan, nil, 4, costsim.SharedMemory()); err == nil {
		t.Error("missing params accepted")
	}
}

// TestTraceStagger: a one-directional sweep (testdata/sweep.dsl shape)
// must show the pipelining wave: worker w's first compute segment starts
// strictly later than worker w-1's as the sweep fills.
func TestTraceStagger(t *testing.T) {
	// In-place recurrence on i makes the inner loop serial; the
	// partitioner turns it into a wavefront relay, and the enclosing k
	// loop pipelines it (paper §3.3).
	src := `
program erleb
param N, M
real A(N, M)
do k = 2, M
  do i = 2, N
    A(i, k) = 0.5 * (A(i - 1, k) + A(i, k - 1))
  end do
end do
end
`
	c, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const P = 6
	params := map[string]int64{"N": 240, "M": 40}
	res, trace, err := costsim.SimulateTrace(c.Schedule, c.Plan, params, P, costsim.SoftwareDSM())
	if err != nil {
		t.Fatal(err)
	}
	if res.Barriers != 0 {
		t.Fatalf("sweep should be barrier-free, got %d barriers", res.Barriers)
	}
	// Second compute segment per worker (first sweep step after the
	// pipeline is primed) must start monotonically later with rank.
	second := make([]float64, P)
	seen := make([]int, P)
	for _, seg := range trace {
		if seg.Kind == costsim.SegCompute && seen[seg.Worker] < 2 {
			seen[seg.Worker]++
			if seen[seg.Worker] == 2 {
				second[seg.Worker] = seg.Start
			}
		}
	}
	for w := 1; w < P; w++ {
		if second[w] <= second[w-1] {
			t.Errorf("no stagger: worker %d second compute at %v <= worker %d at %v",
				w, second[w], w-1, second[w-1])
		}
	}
}

// TestRenderGanttOutput sanity-checks the renderer.
func TestRenderGanttOutput(t *testing.T) {
	c, params := compile(t, "pipeline")
	res, trace, err := costsim.SimulateTrace(c.Schedule, c.Plan, params, 4, costsim.SharedMemory())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	costsim.RenderGantt(&sb, res, trace, 4, 60)
	out := sb.String()
	if !strings.Contains(out, "w0 ") || !strings.Contains(out, "#") {
		t.Errorf("gantt output:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 5 {
		t.Errorf("expected header + 4 rows:\n%s", out)
	}
}
