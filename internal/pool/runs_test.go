package pool_test

// The pool's counters seen through the executor: default and explicit pools,
// a cancelled run's team, and a chaos + sanitizer reuse sweep on one pool.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/pool"
	"repro/internal/spmdrt"
	"repro/internal/suite"
)

// TestPooledRunDefaults pins pooled execution as the default: a run with no
// Config.Pool checks its team out of exec.DefaultPool, and the next run of
// the same shape gets the parked team back.
func TestPooledRunDefaults(t *testing.T) {
	k, err := suite.Get("jacobi1d")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewRunner(exec.Config{Workers: 4, Params: k.Params})
	if err != nil {
		t.Fatal(err)
	}
	before := exec.DefaultPool().Snapshot()
	for i := 0; i < 2; i++ {
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
	}
	after := exec.DefaultPool().Snapshot()
	if n := after.Checkouts - before.Checkouts; n != 2 {
		t.Errorf("two default runs made %d checkouts of the default pool, want 2", n)
	}
	if after.Reuses == before.Reuses {
		t.Errorf("second default run built a team cold: pool %+v -> %+v", before, after)
	}
}

// TestRunContextCancelPooled is the pooled variant of the cancellation
// contract: a mid-run cancellation closes the leased team, and the next
// checkout of that shape builds a new team cold with factory-fresh stats.
func TestRunContextCancelPooled(t *testing.T) {
	tp := pool.New(pool.Options{})
	defer tp.Close()

	k, err := suite.Get("jacobi2d")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A large input so the run reliably outlives the deadline.
	big := map[string]int64{"N": 256, "T": 1 << 20}
	r, err := c.NewRunner(exec.Config{Workers: 4, Params: big, Pool: tp})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = r.RunContext(ctx)
	var ce *spmdrt.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("want *spmdrt.CancelError, got %v", err)
	}

	if s := tp.Snapshot(); s.Live != 0 || s.Idle != 0 {
		t.Fatalf("after cancelled pooled run: %+v, want the team closed (0 live / 0 idle)", s)
	}

	small, err := suite.Get("jacobi1d")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := core.Compile(small.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.NewRunner(exec.Config{Workers: 4, Params: small.Params, Pool: tp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r2.Run()
	if err != nil {
		t.Fatalf("run after the cancelled one: %v", err)
	}
	if s := tp.Snapshot(); s.ColdBuilds != 2 || s.Reuses != 0 {
		t.Errorf("pool = %+v, want 2 cold builds / 0 reuses (the cancelled team is never handed out again)", s)
	}

	// Clean-stats check: the run's counts match an identical run on a team
	// from a fresh pool bit for bit — nothing leaked from the cancelled run.
	fresh := pool.New(pool.Options{})
	defer fresh.Close()
	r3, err := c2.NewRunner(exec.Config{Workers: 4, Params: small.Params, Pool: fresh})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := r3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%v", res.Stats), fmt.Sprintf("%v", ref.Stats); got != want {
		t.Errorf("pooled stats diverge from cold-team stats:\npooled: %s\ncold:   %s", got, want)
	}
}

// TestPooledChaosSanitizerReuseSweep is the contamination acceptance test:
// well over 100 back-to-back runs on ONE pool across all 16 suite kernels
// under chaos injection with the sanitizer armed — every run must match
// the sequential reference, audit clean, and produce sync stats identical
// to every other run of its configuration (any cross-run leakage of
// stats, trace bindings or sanitizer clocks would break that). Afterwards
// the pool tears down to zero goroutine growth.
func TestPooledChaosSanitizerReuseSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-run sweep")
	}
	baseline := runtime.NumGoroutine()
	tp := pool.New(pool.Options{})

	const runsPerKernel = 7
	total := 0
	for _, k := range suite.Kernels() {
		params := clampParams(k.Params)
		c, err := core.Compile(k.Source, core.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", k.Name, err)
		}
		ref, err := c.RunSequential(params)
		if err != nil {
			t.Fatalf("%s: sequential: %v", k.Name, err)
		}
		r, err := c.NewRunner(exec.Config{
			Workers:         4,
			Params:          params,
			Pool:            tp,
			ChaosSeed:       11,
			Sanitize:        true,
			WatchdogTimeout: 60 * time.Second,
		})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		tol := k.Tol
		if tol == 0 {
			tol = 1e-12
		}
		var firstStats string
		for i := 0; i < runsPerKernel; i++ {
			res, err := r.Run()
			if err != nil {
				t.Fatalf("%s run %d: %v", k.Name, i, err)
			}
			total++
			if d := exec.ComparableDiff(ref, res.State, c.Prog); d > tol {
				t.Errorf("%s run %d: diverges from reference: diff=%g", k.Name, i, d)
			}
			if !res.Sanitizer.Clean() {
				t.Errorf("%s run %d: sanitizer violations on a reused team:\n%s",
					k.Name, i, res.Sanitizer)
			}
			stats := fmt.Sprintf("%v", res.Stats)
			if i == 0 {
				firstStats = stats
			} else if stats != firstStats {
				t.Errorf("%s run %d: stats diverge across reuse (contamination):\nfirst: %s\nnow:   %s",
					k.Name, i, firstStats, stats)
			}
		}
	}
	if total < 100 {
		t.Fatalf("sweep covered only %d runs, want >= 100", total)
	}

	s := tp.Snapshot()
	if s.Checkouts != int64(total) {
		t.Fatalf("pool %+v after %d runs: every run must check its team out of it", s, total)
	}
	t.Logf("sweep: %d runs, pool %+v", total, s)

	tp.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew by %d over the sweep",
				runtime.NumGoroutine()-baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
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
