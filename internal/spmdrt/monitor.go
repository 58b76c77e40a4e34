package spmdrt

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Monitor is the team's wait-site registry and failure latch. Every
// blocking primitive registers its wait site (which worker is blocked in
// which barrier/counter/point-to-point wait, and on what value) once it
// outlasts its spin and yield rounds; Team.Cancel snapshots all registered
// sites into the *CancelError it latches, so a run stopped by its caller's
// deadline — the way a stalled schedule is stopped — reports where every
// worker was waiting instead of hanging. The latch is also how worker
// panics release the rest of the team: the first failure latches, and
// every monitored wait polls the latch and unwinds.
type Monitor struct {
	// gen mirrors the owning team's run-generation counter so cancellation
	// reports attribute to the specific run of a reused team.
	gen   atomic.Int64
	sites []siteSlot

	mu       sync.Mutex
	failErr  error
	failedCh chan struct{}
	failed   atomic.Bool
}

// siteSlot is one worker's registered wait site, and whether the worker
// has returned from the run's region function.
type siteSlot struct {
	p        atomic.Pointer[WaitSite]
	returned atomic.Bool
	_        pad
}

func newMonitor(n int) *Monitor {
	return &Monitor{sites: make([]siteSlot, n), failedCh: make(chan struct{})}
}

// fail latches the first failure and releases every monitored wait.
func (m *Monitor) fail(err error) {
	m.mu.Lock()
	if m.failErr == nil {
		m.failErr = err
		close(m.failedCh)
	}
	m.mu.Unlock()
	m.failed.Store(true)
}

// Err returns the latched failure, if any.
func (m *Monitor) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failErr
}

// WaitSite describes one worker's current blocking wait.
type WaitSite struct {
	// Worker is the blocked worker's rank.
	Worker int
	// Prim names the primitive: "barrier(central)", "counter", "p2p".
	Prim string
	// Detail formats the primitive-specific part of a report line: barrier
	// episode/sense/round, the peer a point-to-point wait is watching, the
	// counter's sync site. Only a cancellation snapshot calls it, so a wait
	// that merely outlasts its spin formats nothing.
	Detail func() string
	// Target is the value the wait needs to observe (the barrier arrival
	// count, the counter target, the peer progress value).
	Target int64
	// observe samples the currently observed value when a snapshot is
	// taken.
	observe func() int64
	// Since is when the wait was registered: at its first sleep round, the
	// spin and yield rounds behind it.
	Since time.Time
}

// WaitStatus is one worker's entry in a cancellation report: blocked in a
// primitive, returned from its region, or neither (running).
type WaitStatus struct {
	Worker   int
	Blocked  bool
	Returned bool
	Prim     string
	Detail   string
	Target   int64
	Observed int64
	For      time.Duration
}

func (s WaitStatus) String() string {
	if s.Returned {
		return fmt.Sprintf("w%d: returned (its region is done)", s.Worker)
	}
	if !s.Blocked {
		return fmt.Sprintf("w%d: running (not blocked in a runtime sync primitive)", s.Worker)
	}
	out := fmt.Sprintf("w%d: blocked in %s", s.Worker, s.Prim)
	if s.Detail != "" {
		out += " [" + s.Detail + "]"
	}
	out += fmt.Sprintf(" target=%d observed=%d for %s", s.Target, s.Observed, s.For.Round(time.Millisecond))
	return out
}

// CancelError reports a run aborted by external cancellation (a caller's
// context being cancelled or timing out) rather than by a runtime failure.
// Workers blocked in monitored primitives unwind promptly, compute-bound
// workers are abandoned after the unwind grace period. Workers is where
// every worker was at the moment of cancellation: a stalled schedule,
// stopped by its caller's deadline, names each blocked worker's primitive,
// target and observed value.
type CancelError struct {
	// Cause is the cancellation reason (typically a context error).
	Cause error
	// Generation is the team's run generation (Team.Generation) when the
	// run was cancelled, so a report from a reused team attributes to the
	// specific run, not just the site.
	Generation int64
	// Workers holds one status per team worker; empty when no team ran
	// (the run was cancelled before its team was leased, or it had none).
	Workers []WaitStatus
}

func (e *CancelError) Error() string {
	if len(e.Workers) == 0 {
		return fmt.Sprintf("spmdrt: run cancelled: %v", e.Cause)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "spmdrt: run cancelled: %v [gen %d]; per-worker wait sites:", e.Cause, e.Generation)
	for _, w := range e.Workers {
		sb.WriteString("\n  " + w.String())
	}
	return sb.String()
}

func (e *CancelError) Unwrap() error { return e.Cause }

// PanicError wraps a panic raised by one team worker so Team.Run can cancel
// the remaining workers and surface the panic value to the caller.
type PanicError struct {
	Worker int
	Value  any
	Stack  string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("spmdrt: worker %d panicked: %v\n%s", e.Worker, e.Value, e.Stack)
}

// teamAbort is the sentinel panic used to unwind workers out of monitored
// waits after the team has failed; Team.Run swallows it.
type teamAbort struct{}

// cancelError snapshots every worker's registered wait site into the error
// Team.Cancel latches.
func (m *Monitor) cancelError(cause error) *CancelError {
	e := &CancelError{Cause: cause, Generation: m.gen.Load()}
	now := time.Now()
	for w := range m.sites {
		site := m.sites[w].p.Load()
		if site == nil {
			e.Workers = append(e.Workers, WaitStatus{Worker: w, Returned: m.sites[w].returned.Load()})
			continue
		}
		st := WaitStatus{
			Worker:  w,
			Blocked: true,
			Prim:    site.Prim,
			Detail:  site.Detail(),
			Target:  site.Target,
			For:     now.Sub(site.Since),
		}
		if site.observe != nil {
			st.Observed = site.observe()
		}
		e.Workers = append(e.Workers, st)
	}
	return e
}

// waitUntil blocks until done() reports true, escalating from a bounded
// busy-spin through runtime.Gosched to short sleeps so oversubscribed
// teams (workers > GOMAXPROCS, including the single-CPU case) cannot
// livelock a stalled wait. With a non-nil monitor the wait polls the team
// failure latch every round and, from its first sleep round on, is
// registered with the monitor: the site is built by mk only there, so a
// wait that the yield rounds resolve — nearly all of them at a fine grain —
// allocates nothing.
func waitUntil(m *Monitor, mk func() *WaitSite, done func() bool) {
	for i := 0; i < spinWaits; i++ {
		if done() {
			return
		}
	}
	for i := 0; i < 256; i++ {
		if done() {
			return
		}
		if m != nil && m.failed.Load() {
			panic(teamAbort{})
		}
		runtime.Gosched()
	}
	if m != nil {
		site := mk()
		site.Since = time.Now()
		m.sites[site.Worker].p.Store(site)
		defer m.sites[site.Worker].p.Store(nil)
	}
	for i := 0; ; i++ {
		if done() {
			return
		}
		if m != nil && m.failed.Load() {
			panic(teamAbort{})
		}
		time.Sleep(backoff(i))
	}
}

// spinWaits is the busy-spin budget of the waitUntil fast path. Spinning
// only pays when another CPU can flip the awaited condition concurrently;
// on a uniprocessor the awaited worker cannot be running while we spin,
// so every spin round is wasted time on the critical path of a barrier
// episode. The same multicore gate sync.Mutex applies before it spins.
// Captured once at init: GOMAXPROCS rarely changes mid-process, and a
// stale value only costs (or saves) a 64-iteration spin window.
var spinWaits = func() int {
	if runtime.GOMAXPROCS(0) > 1 {
		return 64
	}
	return 0
}()

// backoff escalates 1µs → 128µs over successive sleep rounds: short enough
// that the abort check stays responsive, long enough that a stalled
// wait costs no meaningful CPU.
func backoff(i int) time.Duration {
	shift := i / 8
	if shift > 7 {
		shift = 7
	}
	return time.Microsecond << shift
}

// unwindGrace bounds how long a run waits for workers to unwind after
// the team has failed. A variable so the runtime's own tests can shrink
// it to exercise worker abandonment without multi-second sleeps.
var unwindGrace = 2 * time.Second
