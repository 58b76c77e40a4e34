package suite

import (
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/profile"
)

// guardPairs is the depth of every overhead guard's comparison.
const guardPairs = 15

// TestOverheadGuards pins what the three observability layers may cost,
// each as one Paired comparison at P=4 on standard inputs: the sync-event
// recorder (tracing off → on, by the executor's Elapsed, ≤ 10%), the
// durable profile (traced run → plus building and encoding its Profile, by
// wall, ≤ 3%) and the lifecycle spans (off → on, whole core.Do request,
// ≤ 2%, one kernel per dynamic sync shape). A guard fails only on a worse
// verdict; an unresolved one is logged — the host was too noisy to tell.
// Timing comparisons stay out of plain 'go test ./...': scripts/check.sh
// runs this with OVERHEAD_GUARD=1.
func TestOverheadGuards(t *testing.T) {
	if os.Getenv("OVERHEAD_GUARD") == "" {
		t.Skip("timing guard; set OVERHEAD_GUARD=1 to run (scripts/check.sh does)")
	}
	k, err := Get("jacobi2d")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runner := func(trace bool) *core.Runner {
		r, err := c.NewRunner(exec.Config{Workers: 4, Params: k.Params, Mode: exec.SPMD, Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	off, on := runner(false), runner(true)
	// profiled is the wall of one traced run, plus (encode) building and
	// encoding its durable profile: what spmdrun -profile-out adds to -trace.
	profiled := func(encode bool) Leg {
		return func() (time.Duration, error) {
			start := time.Now()
			res, err := on.Run()
			if err == nil && encode {
				_, err = profile.Encode(on.Profile(res))
			}
			return time.Since(start), err
		}
	}
	type guard struct {
		name string
		tol  float64 // B may cost this fraction more than A
		a, b Leg
	}
	guards := []guard{
		{"tracing off->on jacobi2d", 0.10, runLeg(off, elapsed), runLeg(on, elapsed)},
		{"traced->+profile jacobi2d", 0.03, profiled(false), profiled(true)},
	}
	for _, name := range spanBenchKernels {
		sk, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		guards = append(guards, guard{"spans off->on " + name, spanBenchThresholdPct / 100,
			requestLeg(sk, 4, false, nil), requestLeg(sk, 4, true, nil)})
	}
	for _, g := range guards {
		cmp, err := Paired(guardPairs, g.a, g.b)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		v := cmp.Verdict(g.tol)
		t.Logf("%-28s %10s -> %10s  delta %+.2f%% ±%.2f%%  tolerance %.0f%%  %s", g.name,
			cmp.MedianA.Round(time.Microsecond), cmp.MedianB.Round(time.Microsecond),
			cmp.Pct(), 100*float64(cmp.Noise)/float64(cmp.MedianA), 100*g.tol, v)
		if v == Worse {
			t.Errorf("%s: overhead %.2f%% exceeds the %.0f%% bound beyond the noise bar",
				g.name, cmp.Pct(), 100*g.tol)
		}
	}
}
