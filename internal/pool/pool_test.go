package pool

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/spmdrt"
)

// TestCheckoutReuse: a released team is handed back on the next checkout
// of the same shape, and the gauges record the hit.
func TestCheckoutReuse(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	l1, err := p.Checkout(4, spmdrt.Central)
	if err != nil {
		t.Fatal(err)
	}
	first := l1.Team()
	team := first.Team()
	episodes := 0
	if err := l1.Team().Run(func(w int) {
		team.Barrier(w)
		if w == 0 {
			episodes++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if episodes != 1 {
		t.Fatalf("run crossed %d barriers, want 1", episodes)
	}
	l1.Release(nil)
	l2, err := p.Checkout(4, spmdrt.Central)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Release(nil)
	if l2.Team() != first {
		t.Error("checkout after clean release built a new team instead of reusing")
	}
	s := p.Snapshot()
	if s.Checkouts != 2 || s.Reuses != 1 || s.ColdBuilds != 1 {
		t.Errorf("gauges = %+v, want 2 checkouts / 1 reuse / 1 cold build", s)
	}
}

// TestShapeKeying: different (P, kind) shapes never share teams.
func TestShapeKeying(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	a, _ := p.Checkout(2, spmdrt.Central)
	a.Release(nil)
	b, _ := p.Checkout(2, spmdrt.Tree)
	defer b.Release(nil)
	if b.Team() == a.Team() {
		t.Fatal("checkout crossed barrier-kind keys")
	}
	if b.Team().N() != 2 || b.Team().Kind() != spmdrt.Tree {
		t.Fatalf("wrong shape: P=%d kind=%s", b.Team().N(), b.Team().Kind())
	}
}

// TestFailedReleaseClosesTeam: releasing with an error closes the team
// (its failure latch is single-shot) without building a replacement, and
// the failed team's workers exit.
func TestFailedReleaseClosesTeam(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := New(Options{})
	defer p.Close()
	l, err := p.Checkout(2, spmdrt.Central)
	if err != nil {
		t.Fatal(err)
	}
	l.Release(errors.New("injected failure"))
	if s := p.Snapshot(); s.Live != 0 || s.Idle != 0 || s.ColdBuilds != 1 {
		t.Fatalf("gauges = %+v after a failed release, want 0 live / 0 idle / 1 cold build", s)
	}
	waitGoroutines(t, baseline)
}

// TestFailedRunBuildsFreshTeam: after a run fails and its lease is released
// with the error, the next checkout of the key builds a fresh, clean,
// runnable team cold instead of handing back the failed one.
func TestFailedRunBuildsFreshTeam(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	l, err := p.Checkout(4, spmdrt.Dissemination)
	if err != nil {
		t.Fatal(err)
	}
	failed := l.Team()
	runErr := l.Team().Run(func(w int) { panic("injected") })
	if runErr == nil {
		t.Fatal("injected panic did not surface")
	}
	l.Release(runErr)

	l2, err := p.Checkout(4, spmdrt.Dissemination)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Release(nil)
	if l2.Team() == failed {
		t.Fatal("checkout handed back the failed team")
	}
	if s := p.Snapshot(); s.ColdBuilds != 2 || s.Reuses != 0 {
		t.Fatalf("gauges = %+v, want 2 cold builds / 0 reuses", s)
	}
	if err := l2.Team().VerifyClean(); err != nil {
		t.Fatalf("fresh team not clean: %v", err)
	}
	team := l2.Team().Team()
	if err := l2.Team().Run(func(w int) { team.Barrier(w) }); err != nil {
		t.Fatalf("fresh team cannot run: %v", err)
	}
}

// TestIdleBound: surplus clean releases close teams instead of parking
// without bound.
func TestIdleBound(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	leases := make([]*Lease, maxIdlePerKey+2)
	for i := range leases {
		var err error
		if leases[i], err = p.Checkout(2, spmdrt.Central); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range leases {
		l.Release(nil)
	}
	s := p.Snapshot()
	if s.Idle != maxIdlePerKey || s.Live != maxIdlePerKey {
		t.Fatalf("gauges = %+v, want %d idle / %d live", s, maxIdlePerKey, maxIdlePerKey)
	}
}

// TestReleaseIdempotent: double release is a no-op; a late failure does
// not close the team the first release parked.
func TestReleaseIdempotent(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	l, _ := p.Checkout(2, spmdrt.Central)
	l.Release(nil)
	l.Release(errors.New("late failure"))
	s := p.Snapshot()
	if s.Idle != 1 || s.Live != 1 {
		t.Fatalf("gauges = %+v, want the team parked: 1 idle / 1 live", s)
	}
}

// TestCloseReleasesEverything: Close drains parked teams and their
// goroutines; checkouts afterwards fail.
func TestCloseReleasesEverything(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := New(Options{})
	for i := 0; i < 3; i++ {
		l, err := p.Checkout(4, spmdrt.Central)
		if err != nil {
			t.Fatal(err)
		}
		l.Release(nil)
	}
	p.Close()
	if _, err := p.Checkout(4, spmdrt.Central); err == nil {
		t.Fatal("checkout from a closed pool succeeded")
	}
	waitGoroutines(t, baseline)
	if live := p.Snapshot().Live; live != 0 {
		t.Fatalf("live gauge = %d after Close, want 0", live)
	}
}

// waitGoroutines waits for closed teams' workers to exit, failing if the
// goroutine count does not return to baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("pool workers leaked: %d goroutines above baseline",
				runtime.NumGoroutine()-baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
