package exec_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/suite"
)

// within runs a runner under a whole-run deadline of a minute: a schedule
// that stops synchronizing fails the test with every worker's wait site
// (*spmdrt.CancelError) instead of hanging it.
func within(run func(context.Context) (*core.Result, error)) (*core.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return run(ctx)
}

// clampParams shrinks the suite's table-sized inputs (up to N=65536) to
// chaos-test scale: chaos injection adds microsecond sleeps around every
// sync, so problem sizes must stay small for the full 16-kernel sweep.
// Size parameters are scaled by a common factor so coupled extents (e.g.
// mg2level's fine grid N = 2M) keep their relationship.
func clampParams(p map[string]int64) map[string]int64 {
	const cap = 48
	var max int64 = 1
	for k, v := range p {
		if k != "T" && v > max {
			max = v
		}
	}
	out := map[string]int64{}
	for k, v := range p {
		if k == "T" {
			if v > 4 {
				v = 4
			}
		} else if max > cap {
			orig := v
			if v = v * cap / max; v < 8 {
				// Floor small coupled params so loops like `do k = 2, M`
				// don't become empty (never above the original value).
				if v = 8; orig < v {
					v = orig
				}
			}
		}
		out[k] = v
	}
	return out
}

// TestSuiteUnderChaosWithSanitizer runs every suite kernel in both modes
// under deterministic chaos injection with the soundness sanitizer and a
// whole-run deadline: the optimized schedules must stay correct under
// adversarial timing, produce zero sanitizer violations, and never stall.
func TestSuiteUnderChaosWithSanitizer(t *testing.T) {
	for _, k := range suite.Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			params := clampParams(k.Params)
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			ref, err := c.RunSequential(params)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			for _, l := range legs(c) {
				for _, seed := range []int64{1, 7} {
					cfg := exec.Config{
						Workers:   4,
						Params:    params,
						ChaosSeed: seed,
						Sanitize:  true,
					}
					r, err := l.newRunner(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := within(r.RunContext)
					if err != nil {
						t.Fatalf("%s chaos=%d: %v", l.label, seed, err)
					}
					tol := k.Tol
					if tol == 0 {
						tol = 1e-12
					}
					if d := exec.ComparableDiff(ref, res.State, c.Prog); d > tol {
						t.Errorf("%s chaos=%d diverges: diff=%g\n%s",
							l.label, seed, d, c.Schedule.Dump())
					}
					if res.Sanitizer == nil {
						t.Fatalf("%s chaos=%d: no sanitizer report", l.label, seed)
					}
					if !res.Sanitizer.Clean() {
						t.Errorf("%s chaos=%d: sanitizer flagged a sound schedule:\n%s",
							l.label, seed, res.Sanitizer)
					}
					if res.Sanitizer.Reads == 0 && res.Sanitizer.Writes == 0 {
						t.Errorf("%s chaos=%d: sanitizer observed no shared accesses", l.label, seed)
					}
				}
			}
		})
	}
}

// TestSabotagedScheduleIsCaught drops each scheduled sync edge in turn and
// asserts the harness notices: either the sanitizer reports the now-missing
// edge or the result diverges from the sequential oracle. This validates
// the oracle itself — a checker that cannot see a deliberately broken
// schedule would be worthless evidence of soundness.
func TestSabotagedScheduleIsCaught(t *testing.T) {
	if raceEnabled {
		t.Skip("sabotaged schedules plant real data races by design; the detector reporting them is expected, not a failure (see race_on_test.go)")
	}
	cases := []string{"jacobi1d", "pivotBroadcast", "twoDstencil", "conditionalRedBlack"}
	byName := map[string]int{}
	for i, k := range kernels {
		byName[k.name] = i
	}
	for _, name := range cases {
		k := kernels[byName[name]]
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
			base := exec.Config{Workers: 4, Params: k.params, Sanitize: true}
			probe, err := c.NewRunner(base)
			if err != nil {
				t.Fatal(err)
			}
			classes := probe.SyncSiteClasses()

			// Baseline sanity: the unsabotaged schedule must be clean, or
			// detection below would be meaningless.
			res, err := probe.Run()
			if err != nil {
				t.Fatalf("unsabotaged run: %v", err)
			}
			if !res.Sanitizer.Clean() {
				t.Fatalf("unsabotaged schedule already flagged:\n%s", res.Sanitizer)
			}

			tol := k.tol
			if tol == 0 {
				tol = 1e-12
			}
			realEdges, caught, sanFlagged := 0, 0, 0
			for site, class := range classes {
				if class == comm.ClassNone {
					continue // nothing is executed there; dropping it is a no-op
				}
				realEdges++
				cfg := base
				cfg.SabotageEdge = site + 1
				r, err := c.NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := within(r.RunContext)
				if err != nil {
					// A run stopped at its deadline also counts as detection.
					caught++
					continue
				}
				diverged := exec.ComparableDiff(ref, res.State, c.Prog) > tol
				flagged := !res.Sanitizer.Clean()
				if flagged {
					sanFlagged++
				}
				if flagged || diverged {
					caught++
				} else {
					t.Errorf("site %d (%v): dropped edge escaped both the sanitizer and the oracle",
						site+1, class)
				}
			}
			if realEdges == 0 {
				t.Fatal("kernel schedules no sync edges; pick a different kernel")
			}
			if sanFlagged == 0 {
				// The state oracle is timing-sensitive; the sanitizer must
				// contribute deterministic evidence on every kernel.
				t.Errorf("sanitizer flagged none of %d dropped edges", realEdges)
			}
			t.Logf("%s: %d/%d sabotaged edges caught (%d flagged by sanitizer)",
				k.name, caught, realEdges, sanFlagged)
		})
	}
}

// TestSabotageEdgeValidation covers the Config range check.
func TestSabotageEdgeValidation(t *testing.T) {
	c, err := core.Compile(kernels[0].src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := c.NewRunner(exec.Config{Workers: 2, Params: kernels[0].params})
	if err != nil {
		t.Fatal(err)
	}
	n := probe.NumSyncSites()
	if n == 0 {
		t.Fatal("jacobi1d schedule has no sync sites")
	}
	for _, bad := range []int{-1, n + 1} {
		if _, err := c.NewRunner(exec.Config{Workers: 2, Params: kernels[0].params,
			SabotageEdge: bad}); err == nil {
			t.Errorf("SabotageEdge=%d accepted (schedule has %d sites)", bad, n)
		}
	}
}

// TestChaosRunsAreDeterministic: reductions fold in rank order whatever
// the arrival order, so adversarial timing cannot move a bit. dotchain and
// tomcatvlike keep their reduction fan-ins behind barriers; accum keeps the
// loop-bottom barrier only for the output dependence of its reduction on
// the next time step's (no statement in the loop reads s), the ordering
// the fold's soundness rests on. Each must leave the same final state under
// 50 chaos seeds at each team size.
func TestChaosRunsAreDeterministic(t *testing.T) {
	const accum = `
program accum
param N, T
real A(N), B(N), X(N), s
do t = 1, T
  do i = 2, N - 1
    B(i) = 0.5 * (A(i - 1) + A(i + 1))
  end do
  do i = 2, N - 1
    A(i) = B(i)
    s = s + X(i)
  end do
end do
end
`
	type prog struct {
		name, src string
		params    map[string]int64
	}
	progs := []prog{{"accum", accum, map[string]int64{"N": 48, "T": 4}}}
	for _, name := range []string{"dotchain", "tomcatvlike"} {
		k, err := suite.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{name, k.Source, clampParams(k.Params)})
	}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			c, err := core.Compile(p.src, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 7} {
				var first uint64
				for seed := int64(1); seed <= 50; seed++ {
					r, err := c.NewRunner(exec.Config{Workers: workers, Params: p.params, ChaosSeed: seed})
					if err != nil {
						t.Fatal(err)
					}
					res, err := within(r.RunContext)
					if err != nil {
						t.Fatalf("P=%d seed %d: %v", workers, seed, err)
					}
					if h := stateHash(res.State); seed == 1 {
						first = h
					} else if h != first {
						t.Fatalf("P=%d seed %d: final state %016x, seed 1 left %016x", workers, seed, h, first)
					}
				}
			}
		})
	}
}
