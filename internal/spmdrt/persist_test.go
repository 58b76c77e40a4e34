package spmdrt

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/synctrace"
)

// TestPersistentTeamReuse drives many back-to-back runs on one parked
// team: every run must cross all its barriers, every reset must audit
// clean, and the generation id must increase monotonically across reuse.
func TestPersistentTeamReuse(t *testing.T) {
	const runs = 60
	pt := NewPersistentTeam(4, Central)
	defer pt.Close()
	team := pt.Team()
	for i := 0; i < runs; i++ {
		episodes := 0 // worker 0's barrier calls this run
		if err := pt.Run(func(w int) {
			for range 3 {
				team.Barrier(w)
				if w == 0 {
					episodes++
				}
			}
		}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := team.Generation(); got != int64(i+1) {
			t.Fatalf("run %d: generation = %d, want %d", i, got, i+1)
		}
		if episodes != 3 {
			t.Fatalf("run %d: barriers = %d, want 3", i, episodes)
		}
		if err := pt.ResetForReuse(); err != nil {
			t.Fatalf("run %d: reset: %v", i, err)
		}
		if err := pt.VerifyClean(); err != nil {
			t.Fatalf("run %d: verify clean: %v", i, err)
		}
	}
}

// TestPersistentTeamResetScrubs arms every piece of per-run state the
// reset protocol must scrub — watchdog deadline, trace recorder and its
// episode counters — and checks a reset team audits clean.
func TestPersistentTeamResetScrubs(t *testing.T) {
	pt := NewPersistentTeam(3, Dissemination)
	defer pt.Close()
	team := pt.Team()
	team.SetWatchdog(time.Minute)
	rec := synctrace.New(3, 64)
	rec.AddSite("site 1")
	team.SetTrace(rec)
	if err := pt.Run(func(w int) {
		team.BarrierAt(w, 0)
		team.BarrierAt(w, 1)
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := rec.Recorded(); got != 2*3 {
		t.Fatalf("pre-reset run recorded %d events, want 2 barriers x 3 workers", got)
	}
	if err := pt.ResetForReuse(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if err := pt.VerifyClean(); err != nil {
		t.Fatalf("verify clean after traced+sited run: %v", err)
	}
	// The next run must work with the rebuilt barrier and stay untraced:
	// the recorder keeps only the first run's 2 barriers x 3 workers.
	before := rec.Recorded()
	if err := pt.Run(func(w int) { team.Barrier(w) }); err != nil {
		t.Fatalf("post-reset run: %v", err)
	}
	if got := rec.Recorded(); got != before {
		t.Fatalf("post-reset run recorded into the unbound recorder: %d -> %d events", before, got)
	}
}

// TestPersistentTeamFailureIsTerminal: a panic latches the team; further
// runs and resets are refused (the pool closes such teams).
func TestPersistentTeamFailureIsTerminal(t *testing.T) {
	pt := NewPersistentTeam(4, Tree)
	defer pt.Close()
	team := pt.Team()
	err := pt.Run(func(w int) {
		if w == 2 {
			panic("boom")
		}
		team.Barrier(w)
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Worker != 2 {
		t.Fatalf("run error = %v, want PanicError from worker 2", err)
	}
	if err := pt.Run(func(w int) {}); err == nil {
		t.Fatal("second run on a failed team succeeded, want refusal")
	}
	if err := pt.ResetForReuse(); err == nil {
		t.Fatal("reset of a failed team succeeded, want refusal")
	}
}

// TestPersistentTeamWatchdogGeneration: a deadlock report from a reused
// team carries the generation of the run that tripped it.
func TestPersistentTeamWatchdogGeneration(t *testing.T) {
	pt := NewPersistentTeam(2, Central)
	defer pt.Close()
	team := pt.Team()
	for i := 0; i < 3; i++ {
		if err := pt.Run(func(w int) { team.Barrier(w) }); err != nil {
			t.Fatalf("warmup run %d: %v", i, err)
		}
		if err := pt.ResetForReuse(); err != nil {
			t.Fatalf("warmup reset %d: %v", i, err)
		}
	}
	team.SetWatchdog(30 * time.Millisecond)
	err := pt.Run(func(w int) {
		if w == 0 {
			team.Barrier(w) // w1 never arrives: stall
		}
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("run error = %v, want DeadlockError", err)
	}
	if de.Generation != 4 {
		t.Fatalf("DeadlockError.Generation = %d, want 4", de.Generation)
	}
	if !strings.Contains(de.Error(), "[gen 4]") {
		t.Fatalf("report text missing generation stamp: %q", de.Error())
	}
}

// TestRunNoGoroutineLeak is the guard for the Run completion-tracking fix:
// runs that return by panic propagation or watchdog abort with an
// abandoned compute-bound worker must not leave helper goroutines behind.
// Before the fix, every Run spawned a WaitGroup-waiter goroutine that
// outlived an abandoned run for as long as its slowest worker.
func TestRunNoGoroutineLeak(t *testing.T) {
	oldGrace := unwindGrace
	unwindGrace = 40 * time.Millisecond
	defer func() { unwindGrace = oldGrace }()

	baseline := runtime.NumGoroutine()
	const runs = 10
	var sleepers atomic.Int64
	for i := 0; i < runs; i++ {
		team := NewTeam(4, Central)
		team.SetWatchdog(10 * time.Millisecond)
		err := team.Run(func(w int) {
			if w == 3 {
				// Compute-bound straggler: unmonitored, abandoned past the
				// shortened grace, exits on its own well after Run returns.
				sleepers.Add(1)
				time.Sleep(150 * time.Millisecond)
				sleepers.Add(-1)
				return
			}
			team.Barrier(w)
		})
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("run %d: error = %v, want DeadlockError", i, err)
		}
	}
	// Immediately after the abandoned runs, only the straggler workers may
	// remain; give the scheduler a moment for unwound workers to exit,
	// then require the count back at baseline plus live sleepers only.
	deadline := time.Now().Add(5 * time.Second)
	for {
		extra := runtime.NumGoroutine() - baseline - int(sleepers.Load())
		if extra <= 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d above baseline after %d abandoned runs", extra, runs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And once the stragglers finish, everything is gone.
	for {
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after stragglers exited: %d above baseline",
				runtime.NumGoroutine()-baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPersistentTeamCloseReleasesWorkers: parked workers exit on Close.
func TestPersistentTeamCloseReleasesWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	pts := make([]*PersistentTeam, 0, 4)
	for i := 0; i < 4; i++ {
		pts = append(pts, NewPersistentTeam(4, Central))
	}
	for _, pt := range pts {
		team := pt.Team()
		if err := pt.Run(func(w int) { team.Barrier(w) }); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	for _, pt := range pts {
		pt.Close()
		pt.Close() // idempotent
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("parked workers leaked: %d goroutines above baseline",
				runtime.NumGoroutine()-baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
