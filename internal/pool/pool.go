// Package pool keeps persistent SPMD worker teams parked between runs, so
// back-to-back executions in one process (bench, suite, the examples) pay
// a channel wake instead of a spawn/join cycle per run. It is a free list
// per (workers, barrier kind) key:
//
//   - Checkout pops a parked team of the key, or builds one cold.
//   - Release(nil) runs the reset protocol (PersistentTeam.ResetForReuse +
//     VerifyClean) and parks the team, so no run can observe a
//     predecessor's trace binding, episode counters or barrier state.
//   - Release(err), or a team that fails the reset protocol, closes the
//     team: its failure latch is single-shot and cannot be rearmed. The
//     next checkout of that key builds a new team cold.
package pool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/spmdrt"
)

type key struct {
	workers int
	kind    spmdrt.BarrierKind
}

// maxIdlePerKey bounds the parked teams per (workers, kind) key; surplus
// releases close the team instead of parking it.
const maxIdlePerKey = 4

// Options is empty: a Pool has no settings. New keeps taking it so
// existing callers of New(Options{}) compile.
type Options struct{}

// Pool is a concurrency-safe pool of persistent teams. The zero value is
// not usable; construct with New.
type Pool struct {
	mu     sync.Mutex
	idle   map[key][]*spmdrt.PersistentTeam
	closed bool

	reuses     atomic.Int64
	coldBuilds atomic.Int64
	live       atomic.Int64
}

// New builds an empty pool.
func New(Options) *Pool {
	return &Pool{idle: map[key][]*spmdrt.PersistentTeam{}}
}

// Checkout hands out a parked team for the given shape, building one cold
// when none is parked. The caller must Release the lease, passing the
// run's error (nil for success).
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
	if q := p.idle[k]; len(q) > 0 {
		pt := q[len(q)-1]
		q[len(q)-1] = nil
		p.idle[k] = q[:len(q)-1]
		p.mu.Unlock()
		p.reuses.Add(1)
		return &Lease{p: p, k: k, pt: pt}, nil
	}
	p.mu.Unlock()
	p.coldBuilds.Add(1)
	p.live.Add(1)
	return &Lease{p: p, k: k, pt: spmdrt.NewPersistentTeam(workers, kind)}, nil
}

// Lease is one checked-out team.
type Lease struct {
	p        *Pool
	k        key
	pt       *spmdrt.PersistentTeam
	released atomic.Bool
}

// Team returns the leased persistent team.
func (l *Lease) Team() *spmdrt.PersistentTeam { return l.pt }

// Release returns the team to the pool. runErr is the run's outcome: nil
// sends the team through the reset protocol and parks it; any error, a
// failed reset or audit, a closed pool or a full free list closes it.
// Idempotent (extra calls are no-ops), so callers can defer a failure-path
// release and still release explicitly on success.
func (l *Lease) Release(runErr error) {
	if !l.released.CompareAndSwap(false, true) {
		return
	}
	p := l.p
	if runErr == nil && l.pt.ResetForReuse() == nil && l.pt.VerifyClean() == nil {
		p.mu.Lock()
		if !p.closed && len(p.idle[l.k]) < maxIdlePerKey {
			p.idle[l.k] = append(p.idle[l.k], l.pt)
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
	l.pt.Close()
	p.live.Add(-1)
}

// Close drains the pool: parked teams are closed and future checkouts
// fail. Leased teams are closed by their own Release. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = map[key][]*spmdrt.PersistentTeam{}
	p.closed = true
	p.mu.Unlock()
	for _, q := range idle {
		for _, pt := range q {
			pt.Close()
			p.live.Add(-1)
		}
	}
}
