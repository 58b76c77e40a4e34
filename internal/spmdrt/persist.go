package spmdrt

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// PersistentTeam is a Team whose workers are spawned once and then parked
// at a rendezvous between runs instead of being joined: each Run hands a
// region function to the already-live workers over per-worker channels, so
// the per-run cost is a channel send and wake instead of N goroutine
// spawns plus a join. It is the unit the team pool (internal/pool) checks
// out, resets and parks.
//
// The failure contract matches Team.Run: a worker panic, watchdog deadlock
// or cancellation latches the monitor and Run returns the corresponding
// error after workers unwind (bounded by the same grace period). A
// persistent team whose latch has tripped is permanently failed — Run
// refuses it and ResetForReuse rejects it — because the latch releases
// blocked waiters exactly once; the pool closes such teams and builds the
// next one cold instead of resuscitating them.
type PersistentTeam struct {
	t    *Team
	jobs []chan *teamJob

	mu     sync.Mutex
	closed bool
}

// teamJob is one dispatched run: every worker executes fn(w) once; the
// last worker to finish closes done.
type teamJob struct {
	fn        func(w int)
	remaining atomic.Int64
	done      chan struct{}
}

// NewPersistentTeam spawns n parked workers around a fresh Team of the
// given barrier kind. Callers must Close the team to release the workers.
func NewPersistentTeam(n int, kind BarrierKind) *PersistentTeam {
	pt := &PersistentTeam{t: NewTeam(n, kind), jobs: make([]chan *teamJob, n)}
	for w := 0; w < n; w++ {
		pt.jobs[w] = make(chan *teamJob, 1)
		go pt.parkLoop(w)
	}
	return pt
}

// Team exposes the underlying Team for setup (SetWatchdog, SetTrace,
// NewCounter) and for the region function's Barrier calls.
func (pt *PersistentTeam) Team() *Team { return pt.t }

// parkLoop is one worker's life: block on the job channel, run, repeat
// until the channel closes. A worker abandoned mid-job (grace timeout)
// finds the channel closed when it finally returns and exits cleanly, so
// closed persistent teams never leak workers permanently.
func (pt *PersistentTeam) parkLoop(w int) {
	for job := range pt.jobs[w] {
		pt.runOne(w, job)
	}
}

// runOne executes one worker's share of a job with the same panic
// contract as runWorkers: teamAbort unwinds are swallowed, real panics
// latch the monitor as a PanicError.
func (pt *PersistentTeam) runOne(w int, job *teamJob) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(teamAbort); !ok {
				pt.t.mon.fail(&PanicError{Worker: w, Value: r, Stack: string(debug.Stack())})
			}
		}
		if job.remaining.Add(-1) == 0 {
			close(job.done)
		}
	}()
	job.fn(w)
}

// Run executes fn(w) on the parked workers and returns when all finish,
// with Team.Run's error contract. A closed or previously-failed team is
// refused without dispatching.
func (pt *PersistentTeam) Run(fn func(w int)) error {
	pt.mu.Lock()
	if pt.closed {
		pt.mu.Unlock()
		return errors.New("spmdrt: run on a closed persistent team")
	}
	mon := pt.t.mon
	if mon.failed.Load() {
		pt.mu.Unlock()
		// A pre-latched team (earlier failure, or cancellation racing the
		// checkout) returns its latched error rather than running: the
		// latch can release waiters only once, so a second run could hang.
		return mon.Err()
	}
	mon.gen.Store(pt.t.gen.Add(1))
	job := &teamJob{fn: fn, done: make(chan struct{})}
	job.remaining.Store(int64(pt.t.N))
	for _, ch := range pt.jobs {
		ch <- job
	}
	pt.mu.Unlock()
	select {
	case <-job.done:
	case <-mon.failedCh:
		select {
		case <-job.done:
		case <-time.After(unwindGrace):
		}
	}
	return mon.Err()
}

// ResetForReuse scrubs all cross-run state so the next checkout observes a
// factory-fresh team: the armed watchdog deadline, the bound trace
// recorder, per-worker episode counters and the barrier's internal
// sense/count/round state (the barrier is rebuilt outright — cheaper to
// reason about than unwinding three different algorithms' state
// machines). The team keeps no run statistics to scrub: the executor
// counts each run in its own worker state. A failed or closed team is
// rejected; close it instead.
func (pt *PersistentTeam) ResetForReuse() error {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.closed {
		return errors.New("spmdrt: reset of a closed persistent team")
	}
	t := pt.t
	if err := t.mon.Err(); err != nil {
		return fmt.Errorf("spmdrt: reset of a failed team: %w", err)
	}
	t.SetWatchdog(0)
	t.trace = nil
	for i := range t.eps {
		t.eps[i] = paddedInt{}
	}
	t.barrier = newBarrier(t.kind, t.N, t.mon)
	return nil
}

// VerifyClean audits the post-reset state: the failure latch must be
// untripped, no worker registered at a monitor wait site, and no trace
// recorder bound. It is the pool's checkout-time guard against cross-run
// contamination.
func (pt *PersistentTeam) VerifyClean() error {
	t := pt.t
	if err := t.mon.Err(); err != nil {
		return fmt.Errorf("spmdrt: team failure latch tripped: %w", err)
	}
	for w := 0; w < t.N; w++ {
		if site := t.mon.sites[w].p.Load(); site != nil {
			return fmt.Errorf("spmdrt: worker %d still registered at wait site %s after reset", w, site.Prim)
		}
	}
	if t.trace != nil {
		return errors.New("spmdrt: trace recorder still bound after reset")
	}
	return nil
}

// Close releases the parked workers. Idempotent. Workers abandoned
// mid-job (a run that timed out past the unwind grace) exit when they
// eventually return and observe the closed channel.
func (pt *PersistentTeam) Close() {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.closed {
		return
	}
	pt.closed = true
	for _, ch := range pt.jobs {
		close(ch)
	}
}
