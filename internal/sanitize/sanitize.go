// Package sanitize implements the schedule-soundness sanitizer: a
// deterministic, vector-clock-based auditor for barrier elimination. The
// executor reports every shared read/write and every executed
// synchronization edge; the tracker maintains one vector clock per worker,
// joins clocks exactly where the schedule placed a sync (barrier episodes,
// counter posts/waits, point-to-point posts/waits), and keeps a per-element
// last-writer epoch (site, worker, clock). A cross-worker access whose
// writer clock is not covered by the accessor's vector clock is a flow the
// schedule failed to order — reported with the exact statement pair — which
// makes the sanitizer a purpose-built alternative to `go test -race` for
// auditing eliminated barriers: it flags the missing edge from the sync
// structure alone, independent of how the racy timing actually resolved.
//
// The tracker is sound against false positives (every join mirrors a real
// executed sync edge, and counter/point-to-point site clocks are merged
// monotonically, which can only over-order) and deterministic against
// dropped edges: if a scheduled edge never executes, no join happens and
// the unordered flow is flagged on every run regardless of timing.
// Two kinds of write are exempt by construction. A reduction fold (the
// last active worker to arrive combines every rank's partial in rank
// order) is not reported: the schedule orders it as a write by every
// active worker. A replicated same-value store resets the element to the
// pre-run "ordered with everyone" epoch.
package sanitize

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// epoch packing: site(16) | worker(16) | clock(32). Epoch 0 is reserved
// for "pre-run / ordered with every worker".
func pack(site uint16, w int, clock int64) uint64 {
	return uint64(site)<<48 | uint64(uint16(w))<<32 | uint64(uint32(clock))
}

func unpack(ep uint64) (site uint16, w int, clock int64) {
	return uint16(ep >> 48), int(uint16(ep >> 32)), int64(uint32(ep))
}

// shadow holds the last-writer and last-reader epochs of one location
// bank (an array, or a single scalar).
type shadow struct {
	write []atomic.Uint64
	read  []atomic.Uint64
}

type p2pKey struct {
	chain    any
	producer int
}

type barAcc struct {
	vc     []int64
	joined int
}

type vioKey struct {
	kind     string
	loc      string
	prevSite uint16
	site     uint16
}

// Violation is one distinct unordered-flow pattern (a statement pair on a
// location); Count tallies how many dynamic accesses matched it.
type Violation struct {
	// Kind is "read-after-write", "write-after-write" or
	// "write-after-read".
	Kind string
	// Loc and Index identify the first flagged element.
	Loc   string
	Index int64
	// PrevWorker/PrevSite are the earlier access (the write, or for
	// write-after-read the read) the schedule failed to order.
	PrevWorker int
	PrevSite   string
	// Worker/Site are the access that observed the missing edge.
	Worker int
	Site   string
	Count  int
}

func (v Violation) String() string {
	return fmt.Sprintf("%s on %s[%d]: worker %d at {%s} vs worker %d at {%s} — no scheduled sync edge orders this statement pair (×%d)",
		v.Kind, v.Loc, v.Index, v.PrevWorker, v.PrevSite, v.Worker, v.Site, v.Count)
}

// maxViolations caps the distinct violation patterns kept.
const maxViolations = 128

// Tracker audits one parallel execution. Each worker may only pass its own
// rank to Read/Write/Barrier/…Post/…Join; site ids come from Site, called
// single-threaded during setup.
type Tracker struct {
	n int
	// clocks[w] is worker w's vector clock, accessed only by worker w
	// (published into site clocks under mu).
	clocks [][]int64
	// barSeq[w] counts worker w's barrier episodes (owner-only).
	barSeq []int64

	mu        sync.Mutex
	counterVC map[any][]int64
	p2pVC     map[p2pKey][]int64
	bars      map[int64]*barAcc
	vio       map[vioKey]*Violation
	order     []vioKey
	dropped   int

	locs  map[string]*shadow
	sites []string

	reads, writes atomic.Int64
}

// New builds a tracker for n workers.
func New(n int) *Tracker {
	if n <= 0 || n > 1<<16-1 {
		panic("sanitize: worker count out of range")
	}
	t := &Tracker{
		n:         n,
		clocks:    make([][]int64, n),
		barSeq:    make([]int64, n),
		counterVC: map[any][]int64{},
		p2pVC:     map[p2pKey][]int64{},
		bars:      map[int64]*barAcc{},
		vio:       map[vioKey]*Violation{},
		locs:      map[string]*shadow{},
		sites:     []string{"<unknown>"},
	}
	for w := range t.clocks {
		t.clocks[w] = make([]int64, n)
		t.clocks[w][w] = 1 // clock 0 is the pre-run epoch
	}
	return t
}

// Site interns a source-site description (a statement with its position)
// and returns its id. Setup only — not safe during the run.
func (t *Tracker) Site(desc string) uint16 {
	if len(t.sites) >= 1<<16 {
		return 0
	}
	t.sites = append(t.sites, desc)
	return uint16(len(t.sites) - 1)
}

// Register declares a shared location bank: an array of size elements, or
// a scalar with size 1. Setup only.
func (t *Tracker) Register(loc string, size int64) {
	t.locs[loc] = &shadow{
		write: make([]atomic.Uint64, size),
		read:  make([]atomic.Uint64, size),
	}
}

func merge(dst, src []int64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// Read records worker w reading loc[idx] at the given site, flagging a
// read of a cross-worker write not ordered by any executed sync edge.
func (t *Tracker) Read(w int, loc string, idx int64, site uint16) {
	sh := t.locs[loc]
	if sh == nil {
		return
	}
	t.reads.Add(1)
	if ep := sh.write[idx].Load(); ep != 0 {
		ws, ww, wc := unpack(ep)
		if ww != w && t.clocks[w][ww] < wc {
			t.violate("read-after-write", loc, idx, ww, ws, w, site)
		}
	}
	sh.read[idx].Store(pack(site, w, t.clocks[w][w]))
}

// Write records worker w writing loc[idx] at the given site. A write over
// an unordered cross-worker write or read is flagged. replicated marks a
// same-value store executed redundantly by every worker (the paper's
// replicated computation model): it is exempt and resets the element to
// the pre-run epoch.
func (t *Tracker) Write(w int, loc string, idx int64, site uint16, replicated bool) {
	sh := t.locs[loc]
	if sh == nil {
		return
	}
	t.writes.Add(1)
	if !replicated {
		if ep := sh.write[idx].Load(); ep != 0 {
			ws, ww, wc := unpack(ep)
			if ww != w && t.clocks[w][ww] < wc {
				t.violate("write-after-write", loc, idx, ww, ws, w, site)
			}
		}
		if ep := sh.read[idx].Load(); ep != 0 {
			rs, rw, rc := unpack(ep)
			if rw != w && t.clocks[w][rw] < rc {
				t.violate("write-after-read", loc, idx, rw, rs, w, site)
			}
		}
	}
	// The write dominates: prior ordered reads are transitively ordered
	// through this write's epoch, so the read slot is cleared to avoid
	// false write-after-read positives downstream.
	sh.read[idx].Store(0)
	if replicated {
		sh.write[idx].Store(0)
	} else {
		sh.write[idx].Store(pack(site, w, t.clocks[w][w]))
	}
}

func (t *Tracker) violate(kind, loc string, idx int64, prevW int, prevSite uint16, w int, site uint16) {
	key := vioKey{kind, loc, prevSite, site}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v := t.vio[key]; v != nil {
		v.Count++
		return
	}
	if len(t.vio) >= maxViolations {
		t.dropped++
		return
	}
	t.vio[key] = &Violation{
		Kind: kind, Loc: loc, Index: idx,
		PrevWorker: prevW, PrevSite: t.sites[prevSite],
		Worker: w, Site: t.sites[site],
		Count: 1,
	}
	t.order = append(t.order, key)
}

// Barrier wraps worker w's participation in one barrier episode: wait must
// perform the actual barrier. All workers of the episode publish before
// any joins, so the join is exact (all-to-all).
func (t *Tracker) Barrier(w int, wait func()) {
	ep := t.barSeq[w]
	t.barSeq[w]++
	t.mu.Lock()
	acc := t.bars[ep]
	if acc == nil {
		acc = &barAcc{vc: make([]int64, t.n)}
		t.bars[ep] = acc
	}
	merge(acc.vc, t.clocks[w])
	t.mu.Unlock()
	t.clocks[w][w]++ // release tick: later writes are not covered by this publish
	wait()
	t.mu.Lock()
	merge(t.clocks[w], acc.vc)
	if acc.joined++; acc.joined == t.n {
		delete(t.bars, ep)
	}
	t.mu.Unlock()
}

// CounterPost publishes worker w's clock into the counter's site clock;
// call immediately before the counter increment that releases waiters.
func (t *Tracker) CounterPost(key any, w int) {
	t.mu.Lock()
	vc := t.counterVC[key]
	if vc == nil {
		vc = make([]int64, t.n)
		t.counterVC[key] = vc
	}
	merge(vc, t.clocks[w])
	t.mu.Unlock()
	t.clocks[w][w]++
}

// CounterJoin absorbs the counter's site clock into worker w's clock; call
// immediately after the counter wait returns.
func (t *Tracker) CounterJoin(key any, w int) {
	t.mu.Lock()
	if vc := t.counterVC[key]; vc != nil {
		merge(t.clocks[w], vc)
	}
	t.mu.Unlock()
}

// P2PPost publishes producer's clock into its per-producer slot of the
// point-to-point chain; call immediately before the Post.
func (t *Tracker) P2PPost(chain any, producer int) {
	key := p2pKey{chain, producer}
	t.mu.Lock()
	vc := t.p2pVC[key]
	if vc == nil {
		vc = make([]int64, t.n)
		t.p2pVC[key] = vc
	}
	merge(vc, t.clocks[producer])
	t.mu.Unlock()
	t.clocks[producer][producer]++
}

// P2PJoin absorbs producer's slot clock into worker self's clock; call
// immediately after the corresponding wait returns.
func (t *Tracker) P2PJoin(chain any, self, producer int) {
	key := p2pKey{chain, producer}
	t.mu.Lock()
	if vc := t.p2pVC[key]; vc != nil {
		merge(t.clocks[self], vc)
	}
	t.mu.Unlock()
}

// Report summarizes the audit; call after the run completes.
type Report struct {
	Workers       int
	Reads, Writes int64
	// Violations lists distinct unordered statement pairs in first-seen
	// order; Dropped counts patterns beyond the cap.
	Violations []Violation
	Dropped    int
}

// Report builds the final report.
func (t *Tracker) Report() *Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &Report{
		Workers: t.n,
		Reads:   t.reads.Load(),
		Writes:  t.writes.Load(),
		Dropped: t.dropped,
	}
	for _, k := range t.order {
		r.Violations = append(r.Violations, *t.vio[k])
	}
	return r
}

// Clean reports whether the audit found no unordered flows.
func (r *Report) Clean() bool { return len(r.Violations) == 0 && r.Dropped == 0 }

func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sanitizer: %d workers, %d shared reads, %d shared writes, %d violation pattern(s)",
		r.Workers, r.Reads, r.Writes, len(r.Violations))
	if r.Dropped > 0 {
		fmt.Fprintf(&sb, " (+%d beyond cap)", r.Dropped)
	}
	for _, v := range r.Violations {
		sb.WriteString("\n  " + v.String())
	}
	return sb.String()
}
