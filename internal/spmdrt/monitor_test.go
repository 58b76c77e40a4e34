package spmdrt

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// watchdog arms a whole-run deadline on team: past d the run is cancelled
// with context.DeadlineExceeded, as a caller's context deadline cancels it.
// Stop the returned timer once the run is over.
func watchdog(team *Team, d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() { team.Cancel(context.DeadlineExceeded) })
}

// cancelled requires err to be a deadline *CancelError with one status
// per worker of an n-worker team.
func cancelled(t *testing.T, err error, n int) *CancelError {
	t.Helper()
	var ce *CancelError
	if !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want a *CancelError wrapping the deadline", err)
	}
	if len(ce.Workers) != n {
		t.Fatalf("report has %d worker entries, want %d", len(ce.Workers), n)
	}
	return ce
}

// deadlockTeam runs fn on a team under a watchdog and requires a
// CancelError naming the given primitive in at least one wait status.
func deadlockTeam(t *testing.T, n int, fn func(team *Team, w int), wantPrim string) *CancelError {
	t.Helper()
	team := NewTeam(n, Central)
	defer watchdog(team, 100*time.Millisecond).Stop()
	ce := cancelled(t, team.Run(func(w int) { fn(team, w) }), n)
	found := false
	for _, ws := range ce.Workers {
		if ws.Blocked && strings.Contains(ws.Prim, wantPrim) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no worker blocked in %q; report:\n%v", wantPrim, ce)
	}
	if !strings.Contains(ce.Error(), "per-worker wait sites") {
		t.Errorf("report text %q does not list the wait sites", ce.Error())
	}
	return ce
}

func TestWatchdogBarrierDeadlock(t *testing.T) {
	for _, k := range []BarrierKind{Central, Tree, Dissemination} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			team := NewTeam(4, k)
			defer watchdog(team, 100*time.Millisecond).Stop()
			de := cancelled(t, team.Run(func(w int) {
				if w == 2 {
					return // desert the team: the barrier can never fill
				}
				team.Barrier(w)
			}), 4)
			blocked := 0
			for _, ws := range de.Workers {
				if ws.Blocked {
					blocked++
					if !strings.Contains(ws.Prim, "barrier") {
						t.Errorf("worker %d blocked in %q, want a barrier", ws.Worker, ws.Prim)
					}
					if ws.Detail == "" {
						t.Errorf("worker %d report has no barrier detail", ws.Worker)
					}
				}
			}
			if blocked == 0 {
				t.Fatalf("no blocked workers in report:\n%v", de)
			}
			if de.Workers[2].Blocked {
				t.Errorf("deserter reported as blocked:\n%v", de)
			}
		})
	}
}

func TestWatchdogCounterDeadlock(t *testing.T) {
	de := deadlockTeam(t, 3, func(team *Team, w int) {
		c := team.NewCounter() // never incremented
		c.Site = "test site 7"
		c.WaitGEAs(w, 5)
	}, "counter")
	for _, ws := range de.Workers {
		if !ws.Blocked {
			continue
		}
		if ws.Target != 5 || ws.Observed != 0 {
			t.Errorf("worker %d target/observed = %d/%d, want 5/0", ws.Worker, ws.Target, ws.Observed)
		}
		if ws.Detail != "test site 7" {
			t.Errorf("worker %d detail = %q, want the counter site label", ws.Worker, ws.Detail)
		}
	}
}

func TestWatchdogP2PDeadlock(t *testing.T) {
	de := deadlockTeam(t, 2, func(team *Team, w int) {
		p := team.NewP2P()
		if w == 0 {
			p.WaitForAs(0, 1, 1) // worker 1 never posts to ITS OWN p2p set
		}
	}, "p2p")
	st := de.Workers[0]
	if !st.Blocked || !strings.Contains(st.Detail, "w1") {
		t.Errorf("worker 0 status %+v does not name the awaited peer", st)
	}
}

// TestWorkerPanicPropagates is the regression test for the pre-hardening
// behavior where a worker panic left the rest of the team spinning forever
// in the join barrier: the panic must cancel the team and reach the caller.
func TestWorkerPanicPropagates(t *testing.T) {
	team := NewTeam(4, Central)
	start := time.Now()
	err := team.Run(func(w int) {
		if w == 3 {
			panic("kernel exploded")
		}
		// Everyone else heads into a barrier that can now never fill.
		team.Barrier(w)
	})
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("Run took %v; panic did not cancel the team", took)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want *PanicError", err)
	}
	if pe.Worker != 3 {
		t.Errorf("PanicError.Worker = %d, want 3", pe.Worker)
	}
	if pe.Value != "kernel exploded" {
		t.Errorf("PanicError.Value = %v, want the panic value", pe.Value)
	}
	if pe.Stack == "" {
		t.Error("PanicError carries no stack trace")
	}
	if !strings.Contains(pe.Error(), "kernel exploded") {
		t.Errorf("error text %q omits the panic value", pe.Error())
	}
}

func TestWorkerPanicCancelsCounterWaiters(t *testing.T) {
	team := NewTeam(3, Central)
	c := team.NewCounter()
	err := team.Run(func(w int) {
		if w == 0 {
			panic("producer died")
		}
		c.WaitGEAs(w, 100) // would block forever without cancellation
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want *PanicError", err)
	}
}

func TestWatchdogDisarmed(t *testing.T) {
	// Without a watchdog the team must complete normally and return nil.
	team := NewTeam(4, Central)
	if err := team.Run(func(w int) {
		for i := 0; i < 20; i++ {
			team.Barrier(w)
		}
	}); err != nil {
		t.Fatalf("healthy run returned %v", err)
	}
}

func TestWatchdogNotTrippedByHealthyRun(t *testing.T) {
	team := NewTeam(4, Dissemination)
	defer watchdog(team, 5*time.Second).Stop()
	c := team.NewCounter()
	if err := team.Run(func(w int) {
		for i := 1; i <= 50; i++ {
			team.Barrier(w)
			if w == 0 {
				c.Add(1)
			}
			c.WaitGEAs(w, int64(i))
		}
	}); err != nil {
		t.Fatalf("healthy run returned %v", err)
	}
}

func TestWaitStatusString(t *testing.T) {
	s := WaitStatus{Worker: 2, Blocked: true, Prim: "counter", Detail: "site 3",
		Target: 8, Observed: 5, For: 250 * time.Millisecond}
	out := s.String()
	for _, want := range []string{"w2", "counter", "site 3", "target=8", "observed=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("status %q missing %q", out, want)
		}
	}
	idle := WaitStatus{Worker: 1}
	if !strings.Contains(idle.String(), "running") {
		t.Errorf("idle status %q should say running", idle.String())
	}
}

// TestWatchdogReportNamesEveryBlockedWorker deadlocks three workers in three
// different primitives. A wait registers with the monitor only at its first
// sleep round (the yield rounds before it allocate nothing), and the report
// is the snapshot Cancel takes when the deadline expires: by then all three
// must be registered, each with its primitive, its detail, its target and
// the value it last observed.
func TestWatchdogReportNamesEveryBlockedWorker(t *testing.T) {
	team := NewTeam(3, Tree)
	defer watchdog(team, 100*time.Millisecond).Stop()
	c := team.NewCounter()
	c.Site = "site 4"
	c.Add(2)
	p := team.NewP2P()
	p.Post(2)
	err := team.Run(func(w int) {
		switch w {
		case 0:
			c.WaitGEAs(0, 7)
		case 1:
			p.WaitForAs(1, 2, 3)
		default:
			team.Barrier(2)
		}
	})
	de := cancelled(t, err, 3)
	if de.Generation != 1 {
		t.Errorf("Generation = %d, want 1", de.Generation)
	}
	for w, want := range []WaitStatus{
		{Prim: "counter", Detail: "site 4", Target: 7, Observed: 2},
		{Prim: "p2p", Detail: "awaiting progress of w2", Target: 3, Observed: 1},
		{Prim: "barrier(tree)", Detail: "episode=1 sense=1", Target: 1, Observed: 0},
	} {
		got := de.Workers[w]
		if !got.Blocked || got.Worker != w || got.Prim != want.Prim || got.Detail != want.Detail ||
			got.Target != want.Target || got.Observed != want.Observed || got.For <= 0 {
			t.Errorf("worker %d: report %+v, want blocked in %s [%s] target=%d observed=%d", w, got, want.Prim, want.Detail, want.Target, want.Observed)
		}
	}
}

// TestCancelReportsReturnedWorker cancels a two-worker team whose w0 has
// returned from its region while w1 blocks on a counter nobody posts: the
// report says w0 returned, not that it is running, and w1 is blocked. A
// persistent team clears the mark when it starts its next run.
func TestCancelReportsReturnedWorker(t *testing.T) {
	pt := NewPersistentTeam(2, Central)
	defer pt.Close()
	if err := pt.Run(func(int) {}); err != nil {
		t.Fatal(err)
	}
	team := pt.Team()
	c := team.NewCounter()
	c.Site = "site 2"
	defer watchdog(team, 100*time.Millisecond).Stop()
	de := cancelled(t, pt.Run(func(w int) {
		if w == 1 {
			c.WaitGEAs(1, 1)
		}
	}), 2)
	w0, w1 := de.Workers[0], de.Workers[1]
	if !w0.Returned || w0.Blocked || !strings.Contains(w0.String(), "w0: returned") {
		t.Errorf("w0 status %+v reads %q, want returned", w0, w0)
	}
	if w1.Returned || !w1.Blocked || w1.Prim != "counter" || w1.Detail != "site 2" {
		t.Errorf("w1 status %+v reads %q, want blocked on the counter", w1, w1)
	}
}
