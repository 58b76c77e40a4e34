package suite

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/profile"
)

// guardPairs is the depth of every guard's comparison.
const guardPairs = 15

// spanGuardTol is the span layer's envelope: spans on may cost a whole
// request 2% more than spans off.
const spanGuardTol = 0.02

// spanGuardKernels is one kernel per dynamic sync shape (neighbor waves,
// kept barriers, counter chains), so the span plumbing is judged against
// every executor code path it instruments.
var spanGuardKernels = []string{"jacobi2d", "dotchain", "tred2like"}

// fdoGuardKernels are the two kernels on which the feedback pass flips
// sites at P=4; the guard asserts that it still does.
var fdoGuardKernels = []string{"meshsmooth", "spmvcsr"}

// TestOverheadGuards pins what the three observability layers may cost and
// that profile-guided re-optimization does not make a schedule wait more,
// each as one Paired comparison at P=4 on standard inputs: the sync-event
// recorder (tracing off → on, by the executor's Elapsed, ≤ 10%), the
// durable profile (traced run → plus building and encoding its Profile, by
// wall, ≤ 3%), the lifecycle spans (off → on, whole core.Do request, ≤ 2%)
// and the feedback loop (static → re-optimized against three merged
// profiling runs, by the run profile's total sync wait, tolerance 0). A
// guard fails only on a worse verdict; an unresolved one is logged — the
// host was too noisy to tell. Timing comparisons stay out of plain
// 'go test ./...': scripts/check.sh runs this with OVERHEAD_GUARD=1.
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
		r, err := c.NewRunner(exec.Config{Workers: 4, Params: k.Params, Trace: trace, FixedWidth: true})
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
	for _, name := range spanGuardKernels {
		sk, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		guards = append(guards, guard{"spans off->on " + name, spanGuardTol,
			requestLeg(sk, 4, false), requestLeg(sk, 4, true)})
	}
	for _, name := range fdoGuardKernels {
		static, guided := fdoLegs(t, name, 4)
		guards = append(guards, guard{"static->fdo wait " + name, 0, static, guided})
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

// requestLeg measures one whole request (core.Do, lint through report) of k
// with the span layer off or on. The off leg exercises the nil-trace path —
// the pointer checks the telemetry plumbing left in the executor's hot
// loop — which is the cost every non-observed run pays.
func requestLeg(k Kernel, workers int, spans bool) Leg {
	return func() (time.Duration, error) {
		req := core.NewRequest(k.Source,
			core.WithParams(k.Params), core.WithWorkers(workers))
		req.Run.Spans = spans
		t0 := time.Now()
		if _, err := core.Do(context.Background(), req); err != nil {
			return 0, fmt.Errorf("%s (spans=%v): %w", k.Name, spans, err)
		}
		return time.Since(t0), nil
	}
}

// fdoLegs runs the feedback loop on the named irregular kernel — three
// traced runs of the static schedule merged into one profile, one
// re-optimization, which must flip at least one site — and returns legs
// measuring a traced run of each schedule by its profile's total sync
// wait: wait against wait under identical instrumentation.
func fdoLegs(t *testing.T, name string, workers int) (static, guided Leg) {
	t.Helper()
	k, err := GetIrregular(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runner := func(c *core.Compiled) *core.Runner {
		r, err := c.NewRunner(exec.Config{Workers: workers, Params: k.Params, Trace: true, FixedWidth: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return r
	}
	sr := runner(c)
	var profs []*profile.Profile
	for i := 0; i < 3; i++ {
		res, err := sr.Run()
		if err != nil {
			t.Fatalf("%s: profiling run %d: %v", name, i+1, err)
		}
		profs = append(profs, sr.Profile(res))
	}
	prof, err := profile.Merge(profs...)
	if err != nil {
		t.Fatalf("%s: merge: %v", name, err)
	}
	c2, fres, err := c.Reoptimize(prof)
	if err != nil {
		t.Fatalf("%s: reoptimize: %v", name, err)
	}
	if fres.Flips == 0 {
		t.Errorf("%s: the feedback pass flipped no site at P=%d", name, workers)
	}
	wait := func(r *core.Runner) Leg {
		return runLeg(r, func(res *core.Result) time.Duration { return r.Profile(res).TotalWait() })
	}
	return wait(sr), wait(runner(c2))
}
