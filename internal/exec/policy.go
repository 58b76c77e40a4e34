package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/interp"
	"repro/internal/spmdrt"
)

// RunPolicy layers run robustness over the executor: each attempt is
// bounded by a deadline, transient failures are retried with exponential
// backoff on a freshly restored state, and after exhaustion a certified
// schedule can degrade gracefully to the sequential executor instead of
// failing the caller.
//
// Failure classification is the heart of the policy:
//
//   - Transient (retried): a watchdog deadlock report or a per-attempt
//     deadline expiry on a *certified* schedule. The certifier proved the
//     schedule deadlock-free, so a stall there is adversarial timing
//     (chaos stall, scheduler pathology, an overloaded machine) — fresh
//     timing can succeed.
//   - Deterministic (never retried): a program panic, a worker evaluation
//     fault, or any hang on an uncertified schedule — there the stall is
//     evidence of a real synchronization bug and replaying it would only
//     reproduce it.
//   - Cancellation (aborted): the caller's own context ended; the policy
//     returns immediately without burning retries.
type RunPolicy struct {
	// Deadline bounds each attempt (0 means no per-attempt deadline).
	// Expiry cancels the team mid-run and counts as a transient failure
	// on certified schedules.
	Deadline time.Duration
	// MaxRetries is how many extra attempts a transient failure earns
	// after the first (total team attempts = MaxRetries + 1).
	MaxRetries int
	// Backoff is the pause before the first retry, doubling per retry
	// (default 1ms). The pause is interruptible by the caller's context.
	Backoff time.Duration
	// SequentialFallback, after all team attempts failed transiently,
	// reruns the program on the single-threaded sequential path — always
	// correct (no synchronization to go wrong), just not parallel.
	SequentialFallback bool
	// Certified marks the schedule as certified deadlock-free (the
	// certifier's verdict; core sets this from its memoized certificate).
	// Only certified schedules classify hangs as transient.
	Certified bool
	// OnRetry, when set, observes each retry's 1-based attempt number
	// just before the team reruns (for logging and tests).
	OnRetry func(attempt int)
}

// transient reports whether err is worth retrying under the policy's
// classification (see RunPolicy).
func transient(err error, certified bool) bool {
	if !certified {
		return false
	}
	var de *spmdrt.DeadlockError
	if errors.As(err, &de) {
		return true
	}
	var ce *spmdrt.CancelError
	if errors.As(err, &ce) {
		// Only a deadline expiry is transient; a plain cancellation is
		// the caller aborting (the loop rechecks its own context anyway).
		return errors.Is(ce.Cause, context.DeadlineExceeded)
	}
	return false
}

// runWithPolicy is the retry/backoff/fallback loop around runAttempt.
func (r *Runner) runWithPolicy(ctx context.Context, st *interp.State) (*Result, error) {
	p := r.cfg.Policy
	// pristine snapshots the pre-run state so a retry or the sequential
	// fallback reruns from the same inputs, not from the half-written
	// shared state an aborted attempt left behind.
	var pristine *interp.State
	if p.MaxRetries > 0 || p.SequentialFallback {
		pristine = st.Clone()
	}
	backoff := p.Backoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	attempts := p.MaxRetries + 1
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			restoreState(st, pristine)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, &spmdrt.CancelError{Cause: ctx.Err()}
			}
			backoff *= 2
			if p.OnRetry != nil {
				p.OnRetry(attempt)
			}
		}
		actx := ctx
		var cancel context.CancelFunc
		if p.Deadline > 0 {
			actx, cancel = context.WithTimeout(ctx, p.Deadline)
		}
		res, err := r.runAttempt(actx, st, attempt)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			res.Attempts = attempt
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's own context ended (not just the per-attempt
			// deadline): abort, don't retry.
			return nil, err
		}
		if !transient(err, p.Certified) {
			return nil, err
		}
	}
	if p.SequentialFallback {
		restoreState(st, pristine)
		sp := r.cfg.Spans.Start(r.cfg.SpansParent, "sequential fallback")
		res, err := r.runSequential(ctx, st)
		r.cfg.Spans.End(sp)
		if err != nil {
			return nil, fmt.Errorf("exec: sequential fallback failed: %w (after %d attempts, last: %v)",
				err, attempts, lastErr)
		}
		res.Attempts = attempts
		return res, nil
	}
	return nil, lastErr
}

// restoreState copies src's scalars and array contents back into dst
// (same program, so the storage shapes match by construction).
func restoreState(dst, src *interp.State) {
	if src == nil {
		return
	}
	for k, v := range src.Scalars {
		dst.Scalars[k] = v
	}
	for _, a := range dst.Prog.Arrays {
		da, sa := dst.Array(a.Name), src.Array(a.Name)
		if da != nil && sa != nil {
			copy(da.Data, sa.Data)
		}
	}
}

// runSequential executes the program single-threaded with sequential
// statement semantics — the degraded-but-always-correct path the policy
// falls back to. No team runs: Stats is zero and Trace is nil. Under
// Config.Sanitize a fresh single-worker tracker is bound (the
// instrumented closures dereference it unconditionally) and reports
// clean by construction — one worker's accesses are program-ordered.
func (r *Runner) runSequential(ctx context.Context, st *interp.State) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, &spmdrt.CancelError{Cause: err}
	}
	ps := newPState(st)
	run := &teamRun{Runner: r, ps: ps, sabotage: -1}
	if r.cfg.Sanitize {
		run.san = newSanRun(r.prog, r.exe, ps, 1)
	}
	ws := &workerState{run: run, eng: r.newEngine(run, 0)}
	start := time.Now()
	ws.seqExec(r.prog.Body)
	elapsed := time.Since(start)
	if ws.err != nil {
		return nil, ws.err
	}
	ps.flushTo(st)
	res := &Result{State: st, Elapsed: elapsed, Attempts: 1, SeqFallback: true}
	if run.san != nil {
		res.Sanitizer = run.san.tr.Report()
	}
	return res, nil
}
