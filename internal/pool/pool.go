// Package pool maintains persistent SPMD worker teams parked between
// runs, so back-to-back executions pay a channel wake instead of a full
// spawn/join cycle per run (ROADMAP item 3b, the runtime prerequisite for
// a long-lived serving process). Teams are checked out keyed by
// (workers, barrier kind) and tracked through a per-team health state
// machine:
//
//	Healthy ──release(err)──▶ Suspect ──probe fails──▶ Quarantined
//	   ▲                         │                          │
//	   └──────probe passes───────┘                async rebuild▼
//	                                                      Rebuilt ─▶ Healthy
//
// A clean release runs the checkout-scoped reset protocol
// (PersistentTeam.ResetForReuse + VerifyClean) so no run can observe a
// predecessor's stats, trace binding, watchdog deadline or barrier state.
// Any run failure — watchdog deadlock report, propagated panic,
// cancellation — quarantines the team outright (its failure latch is
// single-shot and cannot be rearmed safely) and triggers an asynchronous
// rebuild of a replacement, so one poisoned team never degrades the next
// checkout.
package pool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/spmdrt"
)

// Health is one pooled team's position in the health state machine.
type Health int32

const (
	// Healthy teams are parked and eligible for checkout.
	Healthy Health = iota
	// Suspect teams failed the reset protocol after a clean run and are
	// being probed (a trivial run plus a fresh reset) before readmission.
	Suspect
	// Quarantined teams are permanently out of service: their failure
	// latch tripped or they failed probing. They are closed and replaced.
	Quarantined
	// Rebuilt marks a replacement team freshly constructed for a
	// quarantined one, transitioning to Healthy as it parks.
	Rebuilt
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	case Rebuilt:
		return "rebuilt"
	default:
		return fmt.Sprintf("Health(%d)", int32(h))
	}
}

type key struct {
	workers int
	kind    spmdrt.BarrierKind
}

type entry struct {
	pt     *spmdrt.PersistentTeam
	health atomic.Int32
	runs   atomic.Int64
}

func (e *entry) setHealth(h Health) { e.health.Store(int32(h)) }

// Options tune a Pool.
type Options struct {
	// MaxIdlePerKey bounds the parked teams per (workers, kind) key;
	// surplus releases close the team instead of parking it (default 4).
	MaxIdlePerKey int
	// NoRebuild disables the asynchronous replacement of quarantined
	// teams, for tests that must account for every team exactly.
	NoRebuild bool
}

// Pool is a concurrency-safe pool of persistent teams. The zero value is
// not usable; construct with New.
type Pool struct {
	opts Options

	mu     sync.Mutex
	idle   map[key][]*entry
	closed bool

	rebuilds sync.WaitGroup

	// Gauges (Snapshot).
	checkouts    atomic.Int64
	reuses       atomic.Int64
	coldBuilds   atomic.Int64
	releases     atomic.Int64
	resets       atomic.Int64
	suspects     atomic.Int64
	probes       atomic.Int64
	probeRescues atomic.Int64
	quarantines  atomic.Int64
	rebuilt      atomic.Int64
	live         atomic.Int64
}

// New builds an empty pool.
func New(opts Options) *Pool {
	if opts.MaxIdlePerKey <= 0 {
		opts.MaxIdlePerKey = 4
	}
	return &Pool{opts: opts, idle: map[key][]*entry{}}
}

// Checkout hands out a healthy parked team for the given shape, building
// one cold when none is parked. The caller must Release the lease exactly
// once, passing the run's error (nil for success).
func (p *Pool) Checkout(workers int, kind spmdrt.BarrierKind) (*Lease, error) {
	if workers < 1 {
		return nil, fmt.Errorf("pool: need at least one worker, got %d", workers)
	}
	k := key{workers: workers, kind: kind}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("pool: checkout from a closed pool")
	}
	p.checkouts.Add(1)
	if q := p.idle[k]; len(q) > 0 {
		e := q[len(q)-1]
		q[len(q)-1] = nil
		p.idle[k] = q[:len(q)-1]
		p.mu.Unlock()
		p.reuses.Add(1)
		e.runs.Add(1)
		return &Lease{p: p, k: k, e: e}, nil
	}
	p.mu.Unlock()
	p.coldBuilds.Add(1)
	p.live.Add(1)
	e := &entry{pt: spmdrt.NewPersistentTeam(workers, kind)}
	e.runs.Add(1)
	return &Lease{p: p, k: k, e: e}, nil
}

// Lease is one checked-out team.
type Lease struct {
	p        *Pool
	k        key
	e        *entry
	released atomic.Bool
}

// Team returns the leased persistent team.
func (l *Lease) Team() *spmdrt.PersistentTeam { return l.e.pt }

// Health returns the leased team's current health state.
func (l *Lease) Health() Health { return Health(l.e.health.Load()) }

// Runs returns how many times this team has been checked out.
func (l *Lease) Runs() int64 { return l.e.runs.Load() }

// Release returns the team to the pool. runErr is the run's outcome: nil
// sends the team through the reset protocol and parks it; any error
// quarantines it and triggers an async rebuild. Idempotent (extra calls
// are no-ops), so callers can defer a failure-path release and still
// release explicitly on success.
func (l *Lease) Release(runErr error) {
	if !l.released.CompareAndSwap(false, true) {
		return
	}
	p := l.p
	p.releases.Add(1)
	if runErr != nil {
		// The failure latch has tripped (or the run never sanely finished):
		// the team cannot be rearmed, only replaced.
		l.e.setHealth(Suspect)
		p.suspects.Add(1)
		p.quarantine(l.e, l.k)
		return
	}
	p.resets.Add(1)
	if err := l.e.pt.ResetForReuse(); err != nil {
		l.e.setHealth(Suspect)
		p.suspects.Add(1)
		if !p.probe(l.e) {
			p.quarantine(l.e, l.k)
			return
		}
	} else if err := l.e.pt.VerifyClean(); err != nil {
		l.e.setHealth(Suspect)
		p.suspects.Add(1)
		if !p.probe(l.e) {
			p.quarantine(l.e, l.k)
			return
		}
	}
	l.e.setHealth(Healthy)
	p.park(l.k, l.e)
}

// probe triages a suspect team: a trivial barrier run plus a fresh reset
// and audit. Survivors return to service; everything else is quarantined
// by the caller.
func (p *Pool) probe(e *entry) bool {
	p.probes.Add(1)
	t := e.pt.Team()
	if err := e.pt.Run(func(w int) { t.Barrier(w) }); err != nil {
		return false
	}
	if err := e.pt.ResetForReuse(); err != nil {
		return false
	}
	if err := e.pt.VerifyClean(); err != nil {
		return false
	}
	p.probeRescues.Add(1)
	return true
}

// quarantine retires a team and asynchronously builds its replacement.
// The rebuild registers with the WaitGroup under the pool lock so Close's
// Wait can never race a fresh Add.
func (p *Pool) quarantine(e *entry, k key) {
	e.setHealth(Quarantined)
	p.quarantines.Add(1)
	p.mu.Lock()
	closed := p.closed
	if !closed {
		p.rebuilds.Add(1)
	}
	p.mu.Unlock()
	if closed {
		e.pt.Close()
		p.live.Add(-1)
		return
	}
	go func() {
		defer p.rebuilds.Done()
		e.pt.Close()
		p.live.Add(-1)
		p.mu.Lock()
		stop := p.closed || p.opts.NoRebuild
		p.mu.Unlock()
		if stop {
			return
		}
		fresh := &entry{pt: spmdrt.NewPersistentTeam(k.workers, k.kind)}
		fresh.setHealth(Rebuilt)
		p.rebuilt.Add(1)
		p.live.Add(1)
		fresh.setHealth(Healthy)
		p.park(k, fresh)
	}()
}

// park returns a healthy team to the idle set, closing it instead when
// the pool is closed or the key's idle bound is reached.
func (p *Pool) park(k key, e *entry) {
	p.mu.Lock()
	if p.closed || len(p.idle[k]) >= p.opts.MaxIdlePerKey {
		p.mu.Unlock()
		e.pt.Close()
		p.live.Add(-1)
		return
	}
	p.idle[k] = append(p.idle[k], e)
	p.mu.Unlock()
}

// Quiesce blocks until every rebuild triggered so far has finished, so
// tests and shutdown paths can account for all teams.
func (p *Pool) Quiesce() { p.rebuilds.Wait() }

// Close drains the pool: parked teams are closed, future checkouts fail,
// in-flight rebuilds finish without re-parking. Leased teams are closed
// by their own Release (park observes closed). Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var all []*entry
	for _, q := range p.idle {
		all = append(all, q...)
	}
	p.idle = map[key][]*entry{}
	p.mu.Unlock()
	for _, e := range all {
		e.pt.Close()
		p.live.Add(-1)
	}
	p.rebuilds.Wait()
}

// Stats is a point-in-time snapshot of the pool gauges.
type Stats struct {
	// Checkouts = Reuses + ColdBuilds.
	Checkouts  int64 `json:"checkouts"`
	Reuses     int64 `json:"reuses"`
	ColdBuilds int64 `json:"cold_builds"`
	Releases   int64 `json:"releases"`
	// Resets counts reset-protocol executions on clean releases.
	Resets int64 `json:"resets"`
	// Suspects/Probes/ProbeRescues/Quarantines/Rebuilt trace the health
	// state machine's transitions.
	Suspects     int64 `json:"suspects"`
	Probes       int64 `json:"probes"`
	ProbeRescues int64 `json:"probe_rescues"`
	Quarantines  int64 `json:"quarantines"`
	Rebuilt      int64 `json:"rebuilt"`
	// Live counts existing teams (parked + leased), Idle the parked ones.
	Live int64 `json:"live_teams"`
	Idle int64 `json:"idle_teams"`
}

// Snapshot reads the gauges.
func (p *Pool) Snapshot() Stats {
	var idle int64
	p.mu.Lock()
	for _, q := range p.idle {
		idle += int64(len(q))
	}
	p.mu.Unlock()
	return Stats{
		Checkouts:    p.checkouts.Load(),
		Reuses:       p.reuses.Load(),
		ColdBuilds:   p.coldBuilds.Load(),
		Releases:     p.releases.Load(),
		Resets:       p.resets.Load(),
		Suspects:     p.suspects.Load(),
		Probes:       p.probes.Load(),
		ProbeRescues: p.probeRescues.Load(),
		Quarantines:  p.quarantines.Load(),
		Rebuilt:      p.rebuilt.Load(),
		Live:         p.live.Load(),
		Idle:         idle,
	}
}
