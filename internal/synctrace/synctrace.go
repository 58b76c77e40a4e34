// Package synctrace is the synchronization-event tracing layer of the SPMD
// runtime: a low-overhead per-worker ring-buffer recorder of enter/exit
// timestamps for every barrier episode, counter increment/wait, neighbor
// wait and fork-join dispatch, tagged with the sync-site id the executor
// threads through the runtime (the same ids a cancellation report's
// counter sites use).
//
// Design constraints, in order:
//
//  1. Tracing off must cost ~zero: every recording call site guards on a
//     single nil check, and all Recorder methods are safe on a nil
//     receiver so callers thread an optional *Recorder without branches.
//  2. A ring never costs more than the events it holds, up to its cap,
//     and the hot path must not share cache lines: each worker appends
//     fixed-size Event structs to its own padded ring, which starts empty
//     and grows by amortized doubling (a 2 ms run that records a few
//     hundred events must not pay for zeroing DefaultCap of them). No
//     locks, no atomics — a buffer is written only by its owning worker
//     while the team runs.
//  3. Bounded memory: a ring grown to its cap wraps and overwrites the
//     *oldest* events (the tail of a run is what post-mortems need); the
//     drop count is reported so truncation is never silent.
//
// Buffers are merged after the team has quiesced (Events, Summarize,
// WriteChromeTrace); merging while workers are still recording is a data
// race by construction and is not supported.
package synctrace

import (
	"fmt"
	"sort"
	"time"
)

// Kind classifies one recorded synchronization event.
type Kind uint8

const (
	// EvBarrier is one barrier episode: enter at arrival, exit at
	// release. Arg is the worker's episode number (1-based).
	EvBarrier Kind = iota
	// EvCounterIncr is a producer incrementing a sync counter
	// (instantaneous; Arg is the cumulative target the producer
	// contributes to — deterministic, unlike the racy post-add value).
	EvCounterIncr
	// EvCounterWait is a consumer waiting for a counter target
	// (Arg is the target value).
	EvCounterWait
	// EvNeighborWait is a point-to-point wait on a peer's completion
	// counter (Arg is the peer worker's rank).
	EvNeighborWait
	// EvDispatch is the fork-join master signalling a region dispatch
	// (instantaneous; Arg is the dispatch sequence number).
	EvDispatch
	// EvDispatchWait is a fork-join worker waiting for a region dispatch
	// (Arg is the dispatch sequence number).
	EvDispatchWait
	numKinds
)

func (k Kind) String() string {
	switch k {
	case EvBarrier:
		return "barrier"
	case EvCounterIncr:
		return "counter-incr"
	case EvCounterWait:
		return "counter-wait"
	case EvNeighborWait:
		return "neighbor-wait"
	case EvDispatch:
		return "dispatch"
	case EvDispatchWait:
		return "dispatch-wait"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Blocking reports whether events of this kind represent time spent
// waiting (as opposed to instantaneous posts).
func (k Kind) Blocking() bool {
	switch k {
	case EvBarrier, EvCounterWait, EvNeighborWait, EvDispatchWait:
		return true
	}
	return false
}

// Event is one fixed-size trace record. Times are nanoseconds since the
// recorder epoch; instantaneous events have End == Start.
type Event struct {
	Kind Kind
	// Site is the sync-site id (the executor's numbering, 0-based), or
	// NoSite for events outside any scheduled boundary.
	Site int32
	// Arg is kind-specific: barrier episode, counter target/value,
	// neighbor peer rank, dispatch sequence number.
	Arg   int64
	Start int64
	End   int64
}

// Dur returns the event's duration.
func (e Event) Dur() time.Duration { return time.Duration(e.End - e.Start) }

// NoSite marks an event not attributable to a scheduled sync site.
const NoSite int32 = -1

// DefaultCap is the default per-worker ring capacity (events).
const DefaultCap = 1 << 16

type pad [120]byte

// workerBuf is one worker's private ring. Only the owning worker touches
// it while the team runs; padding keeps neighbors off its cache lines.
type workerBuf struct {
	ev []Event // grows to the recorder's cap, then wraps
	n  int64   // total events recorded (> len(ev) once wrapped)
	_  pad
}

// Recorder collects sync events for one team run.
type Recorder struct {
	epoch time.Time
	cap   int
	ws    []workerBuf
	sites []string
	// meta holds run-level metadata (team generation, pooled execution)
	// attached by the executor and exported as a Chrome metadata event.
	meta map[string]string
}

// New builds a recorder for n workers with the given per-worker ring
// capacity; the rings start empty. The epoch is set at construction; all
// event timestamps are relative to it.
func New(n, perWorkerCap int) *Recorder {
	if n <= 0 {
		panic("synctrace: recorder needs at least one worker")
	}
	return &Recorder{epoch: time.Now(), cap: perWorkerCap, ws: make([]workerBuf, n)}
}

// Epoch returns the recorder's construction time — the zero point of
// every event timestamp (zero time for nil). External layers that merge
// their own spans into the Chrome export (WriteChromeTrace) align to
// it.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// Workers returns the team size the recorder was built for (0 for nil).
func (r *Recorder) Workers() int {
	if r == nil {
		return 0
	}
	return len(r.ws)
}

// AddSite interns a sync-site name and returns its id. Ids are assigned
// sequentially from 0, so callers that register the executor's scheduled
// sites first get identical numbering in traces and cancellation reports.
// Setup-time only: not safe while workers are recording.
func (r *Recorder) AddSite(name string) int32 {
	if r == nil {
		return NoSite
	}
	r.sites = append(r.sites, name)
	return int32(len(r.sites) - 1)
}

// SetMeta attaches one run-level metadata pair (e.g. "team_generation"),
// exported by WriteChromeTrace as a metadata event. Setup- or
// teardown-time only: not safe while workers are recording. Nil-safe.
func (r *Recorder) SetMeta(key, value string) {
	if r == nil {
		return
	}
	if r.meta == nil {
		r.meta = map[string]string{}
	}
	r.meta[key] = value
}

// SiteName resolves a site id to its registered name.
func (r *Recorder) SiteName(id int32) string {
	if r == nil || id < 0 || int(id) >= len(r.sites) {
		return "(unsited)"
	}
	return r.sites[id]
}

// Now returns nanoseconds since the recorder epoch (0 for nil): the
// start-timestamp half of the recording protocol.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Record appends a span event for worker w, closing it at the current
// time. The caller sampled start via Now() before entering the wait.
func (r *Recorder) Record(w int, k Kind, site int32, arg, start int64) {
	if r == nil {
		return
	}
	r.push(w, Event{Kind: k, Site: site, Arg: arg, Start: start, End: int64(time.Since(r.epoch))})
}

// Instant appends a zero-duration event for worker w at the current time.
func (r *Recorder) Instant(w int, k Kind, site int32, arg int64) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.push(w, Event{Kind: k, Site: site, Arg: arg, Start: now, End: now})
}

func (r *Recorder) push(w int, e Event) {
	b := &r.ws[w]
	if len(b.ev) < r.cap {
		b.ev = append(b.ev, e)
	} else {
		b.ev[b.n%int64(r.cap)] = e
	}
	b.n++
}

// Dropped returns how many events were overwritten by ring wrap-around,
// summed over workers.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var d int64
	for w := range r.ws {
		if over := r.ws[w].n - int64(r.cap); over > 0 {
			d += over
		}
	}
	return d
}

// Recorded returns the total number of events recorded (including any
// later overwritten by wrap-around).
func (r *Recorder) Recorded() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for w := range r.ws {
		n += r.ws[w].n
	}
	return n
}

// WorkerEvents returns worker w's surviving events in recording order
// (oldest survivor first). Call only after the team has quiesced.
func (r *Recorder) WorkerEvents(w int) []Event {
	if r == nil {
		return nil
	}
	b := &r.ws[w]
	n := b.n
	if n <= int64(r.cap) {
		out := make([]Event, n)
		copy(out, b.ev[:n])
		return out
	}
	// Wrapped: the oldest survivor sits at n % cap.
	out := make([]Event, r.cap)
	head := n % int64(r.cap)
	copy(out, b.ev[head:])
	copy(out[int64(r.cap)-head:], b.ev[:head])
	return out
}

// WorkerEvent is an Event tagged with its worker rank, for merged views.
type WorkerEvent struct {
	Worker int
	Event
}

// Events merges all workers' surviving events, ordered by start time
// (ties broken by worker rank, then recording order). Call only after the
// team has quiesced.
func (r *Recorder) Events() []WorkerEvent {
	if r == nil {
		return nil
	}
	var out []WorkerEvent
	for w := range r.ws {
		for _, e := range r.WorkerEvents(w) {
			out = append(out, WorkerEvent{Worker: w, Event: e})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Worker < out[j].Worker
	})
	return out
}

// Span returns the wall-clock interval covered by the surviving events
// (zero if none were recorded).
func (r *Recorder) Span() time.Duration {
	if r == nil {
		return 0
	}
	var lo, hi int64 = -1, 0
	for w := range r.ws {
		for _, e := range r.WorkerEvents(w) {
			if lo < 0 || e.Start < lo {
				lo = e.Start
			}
			if e.End > hi {
				hi = e.End
			}
		}
	}
	if lo < 0 {
		return 0
	}
	return time.Duration(hi - lo)
}
