// Package spmdrt is the SPMD runtime substrate: worker teams executing a
// region function, barrier synchronization in three classic
// implementations (central sense-reversing, combining tree,
// dissemination), producer/consumer counters (§2.2 of the paper) and
// per-worker point-to-point completion counters for neighbor and pipeline
// synchronization. The primitives keep no run statistics: the executor
// tallies each worker's synchronization events where it calls them and sums
// the tallies into a StatsSnapshot after the join, which is how the
// benchmark harness reproduces the paper's "barriers executed" tables
// exactly.
//
// The runtime is hardened against the failure modes of an unsound
// synchronization schedule: every blocking primitive escalates its wait
// (spin → Gosched → short sleep) so stalls never livelock, registers its
// wait site with the team Monitor, and a run stopped by Team.Cancel (a
// caller's deadline expiring over a stalled schedule) returns a
// *CancelError naming every worker's wait site instead of hanging.
// Team.Run recovers worker panics, cancels the remaining workers and
// returns the panic to the caller as a PanicError.
package spmdrt

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/synctrace"
)

// SiteCounts is one sync site's share of the dynamic event totals.
type SiteCounts struct {
	Barriers      int64
	CounterIncrs  int64
	CounterWaits  int64
	NeighborWaits int64
}

// StatsSnapshot is one run's dynamic synchronization counts. A barrier
// crossed by all P workers counts as one executed barrier, matching the
// paper's metric. PerSite, when the run was site-attributed, maps 1-based
// sync-site ids — the numbering of cancellation reports and SabotageEdge — to
// that site's counts; sites that executed no events are omitted.
type StatsSnapshot struct {
	Barriers      int64
	CounterIncrs  int64
	CounterWaits  int64
	NeighborWaits int64
	Dispatches    int64
	PerSite       map[int]SiteCounts
}

func (s StatsSnapshot) String() string {
	return fmt.Sprintf("barriers=%d counters(incr=%d,wait=%d) neighbor-waits=%d dispatches=%d",
		s.Barriers, s.CounterIncrs, s.CounterWaits, s.NeighborWaits, s.Dispatches)
}

// SiteIDs returns the active site ids in ascending order. Every consumer
// that emits per-site output (profiles, reports, metrics) must iterate
// PerSite through this, never the map directly, so emitted bytes are
// independent of Go's randomized map order.
func (s StatsSnapshot) SiteIDs() []int {
	ids := make([]int, 0, len(s.PerSite))
	for id := range s.PerSite {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// PerSiteString renders the per-site counts, one line per active site in
// site order; empty when the run was not site-attributed.
func (s StatsSnapshot) PerSiteString() string {
	if len(s.PerSite) == 0 {
		return ""
	}
	ids := s.SiteIDs()
	var sb strings.Builder
	for _, id := range ids {
		sc := s.PerSite[id]
		fmt.Fprintf(&sb, "site %d: barriers=%d counters(incr=%d,wait=%d) neighbor-waits=%d\n",
			id, sc.Barriers, sc.CounterIncrs, sc.CounterWaits, sc.NeighborWaits)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// BarrierKind selects a barrier implementation.
type BarrierKind int

const (
	// Central is a sense-reversing barrier on one atomic counter; O(P)
	// contention on a single cache line.
	Central BarrierKind = iota
	// Tree is a combining-tree barrier of arity 4 with a global release.
	Tree
	// Dissemination runs ceil(log2 P) rounds of pairwise signaling.
	Dissemination
)

func (k BarrierKind) String() string {
	switch k {
	case Central:
		return "central"
	case Tree:
		return "tree"
	case Dissemination:
		return "dissemination"
	default:
		return fmt.Sprintf("BarrierKind(%d)", int(k))
	}
}

// ParseBarrierKind is the inverse of String for the three algorithms.
func ParseBarrierKind(name string) (BarrierKind, bool) {
	for _, k := range []BarrierKind{Central, Tree, Dissemination} {
		if k.String() == name {
			return k, true
		}
	}
	return Central, false
}

// Barrier is a reusable P-worker barrier.
type Barrier interface {
	// Wait blocks worker w until all workers of the team arrive.
	Wait(w int)
}

type pad [120]byte

// centralBarrier is the classic sense-reversing centralized barrier.
type centralBarrier struct {
	n     int
	mon   *Monitor
	count atomic.Int64
	sense atomic.Int64
	_     pad
	local []paddedInt
}

type paddedInt struct {
	v   int64
	eps int64 // per-worker episode count, for cancellation reports
	_   pad
}

// newBarrier builds a team's barrier; NewTeam has checked n >= 1.
func newBarrier(kind BarrierKind, n int, m *Monitor) Barrier {
	switch kind {
	case Tree:
		return newTreeBarrier(n, m)
	case Dissemination:
		return newDisseminationBarrier(n, m)
	default:
		return &centralBarrier{n: n, mon: m, local: make([]paddedInt, n)}
	}
}

func (b *centralBarrier) Wait(w int) {
	mySense := 1 - b.local[w].v
	b.local[w].v = mySense
	b.local[w].eps++
	if b.count.Add(1) == int64(b.n) {
		b.count.Store(0)
		b.sense.Store(mySense)
		return
	}
	eps := b.local[w].eps
	waitUntil(b.mon, func() *WaitSite {
		return &WaitSite{
			Worker:  w,
			Prim:    "barrier(central)",
			Detail:  func() string { return fmt.Sprintf("episode=%d sense=%d", eps, mySense) },
			Target:  int64(b.n),
			observe: b.count.Load,
		}
	}, func() bool { return b.sense.Load() == mySense })
}

// treeBarrier: workers combine arrivals up a static arity-4 tree; the root
// flips a global release sense.
type treeBarrier struct {
	n       int
	mon     *Monitor
	nodes   []treeNode
	release atomic.Int64
	local   []paddedInt
}

type treeNode struct {
	parent   int // -1 at root
	expected int64
	count    atomic.Int64
	_        pad
}

const treeArity = 4

func newTreeBarrier(n int, m *Monitor) *treeBarrier {
	// Leaf i = worker i; internal nodes above. Build an array-encoded
	// arity-4 tree over n leaves.
	b := &treeBarrier{n: n, mon: m, local: make([]paddedInt, n)}
	// Simple construction: nodes[0..n-1] are leaves; repeatedly group.
	type level struct{ first, count int }
	b.nodes = make([]treeNode, 0, 2*n)
	for i := 0; i < n; i++ {
		b.nodes = append(b.nodes, treeNode{parent: -1})
	}
	cur := level{0, n}
	for cur.count > 1 {
		parents := (cur.count + treeArity - 1) / treeArity
		firstParent := len(b.nodes)
		for p := 0; p < parents; p++ {
			kids := treeArity
			if p == parents-1 {
				kids = cur.count - p*treeArity
			}
			b.nodes = append(b.nodes, treeNode{parent: -1, expected: int64(kids)})
			for c := 0; c < kids; c++ {
				b.nodes[cur.first+p*treeArity+c].parent = firstParent + p
			}
		}
		cur = level{firstParent, parents}
	}
	return b
}

func (b *treeBarrier) Wait(w int) {
	mySense := 1 - b.local[w].v
	b.local[w].v = mySense
	b.local[w].eps++
	// Propagate arrival upward; the last arriver at each node continues.
	node := b.nodes[w].parent
	for node != -1 {
		nd := &b.nodes[node]
		if nd.count.Add(1) != nd.expected {
			break
		}
		nd.count.Store(0)
		node = nd.parent
		if node == -1 {
			b.release.Store(mySense)
			return
		}
	}
	if b.n == 1 {
		b.release.Store(mySense)
		return
	}
	eps := b.local[w].eps
	waitUntil(b.mon, func() *WaitSite {
		return &WaitSite{
			Worker:  w,
			Prim:    "barrier(tree)",
			Detail:  func() string { return fmt.Sprintf("episode=%d sense=%d", eps, mySense) },
			Target:  mySense,
			observe: b.release.Load,
		}
	}, func() bool { return b.release.Load() == mySense })
}

// disseminationBarrier: round r has worker w signal (w + 2^r) mod n and
// wait for a signal from (w - 2^r) mod n; after ceil(log2 n) rounds all
// workers have transitively heard from everyone.
type disseminationBarrier struct {
	n      int
	mon    *Monitor
	rounds int
	// flags[r][w] counts signals received by worker w in round r.
	flags [][]paddedAtomic
	// epoch per worker distinguishes reuse.
	epoch []paddedInt
}

type paddedAtomic struct {
	v atomic.Int64
	_ pad
}

func newDisseminationBarrier(n int, m *Monitor) *disseminationBarrier {
	rounds := 0
	for 1<<rounds < n {
		rounds++
	}
	b := &disseminationBarrier{n: n, mon: m, rounds: rounds, epoch: make([]paddedInt, n)}
	b.flags = make([][]paddedAtomic, rounds)
	for r := range b.flags {
		b.flags[r] = make([]paddedAtomic, n)
	}
	return b
}

func (b *disseminationBarrier) Wait(w int) {
	b.epoch[w].v++
	target := b.epoch[w].v
	for r := 0; r < b.rounds; r++ {
		peer := (w + (1 << r)) % b.n
		b.flags[r][peer].v.Add(1)
		me := &b.flags[r][w].v
		round := r
		waitUntil(b.mon, func() *WaitSite {
			return &WaitSite{
				Worker: w,
				Prim:   "barrier(dissemination)",
				Detail: func() string {
					return fmt.Sprintf("episode=%d round=%d/%d awaiting signal from w%d",
						target, round+1, b.rounds, (w-(1<<round)%b.n+b.n)%b.n)
				},
				Target:  target,
				observe: me.Load,
			}
		}, func() bool { return me.Load() >= target })
	}
}

// Counter is a monotonic producer/consumer counter ("Processors defining
// values can increment a counter, and processors accessing the values wait
// until the counter is incremented to the proper value", §2.2).
type Counter struct {
	v   atomic.Int64
	mon *Monitor
	// Site, if set, labels the counter in cancellation reports (the
	// executor tags each counter with its sync-site id).
	Site string
	// Trace recording (BindTrace): nil rec disables with one branch.
	rec                *synctrace.Recorder
	traceSite          int32
	kindPost, kindWait synctrace.Kind
}

// BindTrace attaches a trace recorder: AddAs records an instant `post`
// event and WaitGEAs records a `wait` span, both tagged with the given
// sync-site id. Setup-time only.
func (c *Counter) BindTrace(rec *synctrace.Recorder, site int32, post, wait synctrace.Kind) {
	c.rec, c.traceSite, c.kindPost, c.kindWait = rec, site, post, wait
}

// Add increments the counter by d, releasing satisfied waiters.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// PostAs is Add on behalf of team worker w, recording an instant post
// event when tracing is bound. arg is the caller-chosen event argument
// (the executor passes its deterministic cumulative target / dispatch
// sequence number — NOT the post-add counter value, which is racy under
// concurrent producers and would break run-to-run trace comparison).
func (c *Counter) PostAs(w int, d, arg int64) {
	if c.rec != nil && w >= 0 {
		c.rec.Instant(w, c.kindPost, c.traceSite, arg)
	}
	c.v.Add(d)
}

// WaitGE blocks until the counter value is at least target, without
// registering a wait site (anonymous waiter).
func (c *Counter) WaitGE(target int64) { c.WaitGEAs(-1, target) }

// WaitGEAs is WaitGE on behalf of team worker w: if the counter is bound
// to a team, the wait registers with the team Monitor so cancellation reports
// name the blocked worker, its counter site and target-vs-observed values.
func (c *Counter) WaitGEAs(w int, target int64) {
	var start int64
	rec := c.rec
	if rec != nil && w >= 0 {
		start = rec.Now()
	} else {
		rec = nil
	}
	if c.v.Load() >= target {
		if rec != nil {
			rec.Record(w, c.kindWait, c.traceSite, target, start)
		}
		return
	}
	m := c.mon
	if w < 0 {
		m = nil
	}
	waitUntil(m, func() *WaitSite {
		return &WaitSite{
			Worker:  w,
			Prim:    "counter",
			Detail:  func() string { return c.Site },
			Target:  target,
			observe: c.v.Load,
		}
	}, func() bool { return c.v.Load() >= target })
	if rec != nil {
		rec.Record(w, c.kindWait, c.traceSite, target, start)
	}
}

// P2P provides per-worker monotonic completion counters for neighbor and
// pipeline synchronization: worker w posts its own progress; any worker
// may wait for another worker's progress to reach a value.
type P2P struct {
	slots []paddedCounter
	mon   *Monitor
	// Trace recording (BindTrace): nil rec disables with one branch.
	rec       *synctrace.Recorder
	traceSite int32
}

// paddedCounter keeps worker w's slot off the cache line worker w+1 posts
// to: 48-byte counters allocated back to back share one.
type paddedCounter struct {
	Counter
	_ pad
}

// BindTrace attaches a trace recorder: WaitForAs records a neighbor-wait
// span tagged with the given sync-site id (Arg = the awaited peer's
// rank). Setup-time only.
func (p *P2P) BindTrace(rec *synctrace.Recorder, site int32) {
	p.rec, p.traceSite = rec, site
}

// Post records that worker w completed one more step.
func (p *P2P) Post(w int) { p.slots[w].Add(1) }

// WaitFor blocks until worker w has posted at least value steps
// (anonymous waiter).
func (p *P2P) WaitFor(w int, value int64) { p.WaitForAs(-1, w, value) }

// WaitForAs is WaitFor on behalf of team worker self, registered with the
// team Monitor when the P2P set is team-bound.
func (p *P2P) WaitForAs(self, w int, value int64) {
	var start int64
	rec := p.rec
	if rec != nil && self >= 0 {
		start = rec.Now()
	} else {
		rec = nil
	}
	c := &p.slots[w].Counter
	if c.v.Load() >= value {
		if rec != nil {
			rec.Record(self, synctrace.EvNeighborWait, p.traceSite, int64(w), start)
		}
		return
	}
	m := p.mon
	if self < 0 {
		m = nil
	}
	waitUntil(m, func() *WaitSite {
		return &WaitSite{
			Worker:  self,
			Prim:    "p2p",
			Detail:  func() string { return fmt.Sprintf("awaiting progress of w%d", w) },
			Target:  value,
			observe: c.v.Load,
		}
	}, func() bool { return c.v.Load() >= value })
	if rec != nil {
		rec.Record(self, synctrace.EvNeighborWait, p.traceSite, int64(w), start)
	}
}

// Team runs SPMD region functions on n workers.
type Team struct {
	N       int
	barrier Barrier
	kind    BarrierKind
	mon     *Monitor
	// trace, when bound via SetTrace, records barrier episodes; eps holds
	// each worker's episode number (padded, owner-written).
	trace *synctrace.Recorder
	eps   []paddedInt
	// gen counts runs on this team (monotonic, never reset): cancellation
	// reports and trace metadata carry it so a report from a reused team
	// is attributable to the specific run, not just the site.
	gen atomic.Int64
}

// NewTeam creates a team of n workers using the given barrier kind.
func NewTeam(n int, kind BarrierKind) *Team {
	if n <= 0 {
		panic("spmdrt: team needs at least one worker")
	}
	mon := newMonitor(n)
	return &Team{N: n, barrier: newBarrier(kind, n, mon), kind: kind, mon: mon}
}

// Generation returns the team's run-generation id: the number of Run calls
// started on this team so far. It increases monotonically across reuse and
// is never reset, so cancellation reports and trace metadata stamped with it
// identify the exact run they came from.
func (t *Team) Generation() int64 { return t.gen.Load() }

// SetTrace binds a sync-event recorder: every barrier episode records an
// enter/exit span per worker. Counters and P2P sets bind separately
// (BindTrace) since only their creator knows the sync-site ids. Call
// before Run; a nil recorder disables barrier tracing.
func (t *Team) SetTrace(rec *synctrace.Recorder) {
	t.trace = rec
	if rec != nil && t.eps == nil {
		t.eps = make([]paddedInt, t.N)
	}
}

// Cancel aborts a running team through its failure latch: Run returns a
// *CancelError wrapping cause, with the run's generation and a snapshot of
// every worker's wait site, and every worker blocked in a team-bound
// primitive unwinds. Safe to call from any goroutine and idempotent;
// calling after the run finished is a no-op on the result.
func (t *Team) Cancel(cause error) { t.mon.fail(t.mon.cancelError(cause)) }

// Failed reports whether the team's failure latch has tripped (worker
// panic or cancellation). Workers can poll it at region boundaries
// to stop compute-bound work between synchronizations.
func (t *Team) Failed() bool { return t.mon.failed.Load() }

// NewCounter returns a counter bound to this team's monitor.
func (t *Team) NewCounter() *Counter { return &Counter{mon: t.mon} }

// NewP2P returns per-worker completion counters bound to this team's
// monitor.
func (t *Team) NewP2P() *P2P { return &P2P{slots: make([]paddedCounter, t.N), mon: t.mon} }

// Run executes fn(w) on n concurrent workers and returns when all finish.
// A worker panic cancels the rest of the team (workers blocked in
// team-bound primitives unwind) and is returned as a *PanicError; a
// Cancel returns a *CancelError. A team that has failed must not be reused. The workers are a persistent team's,
// spawned for this one run and released after it.
func (t *Team) Run(fn func(w int)) error {
	pt := newPersistentTeam(t)
	defer pt.Close()
	return pt.Run(fn)
}

// Barrier synchronizes all team workers, unattributed to any sync site.
func (t *Team) Barrier(w int) { t.BarrierAt(w, -1) }

// BarrierAt is Barrier attributed to a 0-based sync-site id (-1 for none):
// when a recorder is bound, the episode is recorded as an enter/exit span
// tagged with the site (Arg = the worker's episode number).
func (t *Team) BarrierAt(w, site int) {
	if rec := t.trace; rec != nil {
		start := rec.Now()
		t.barrier.Wait(w)
		t.eps[w].v++
		rec.Record(w, synctrace.EvBarrier, int32(site), t.eps[w].v, start)
		return
	}
	t.barrier.Wait(w)
}
