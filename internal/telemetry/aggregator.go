package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/profile"
)

// Aggregator folds finished runs into process-lifetime statistics: counts
// and latency sketches per kernel group, per-site wait rollups that
// accumulate across pooled runs (merged profiles, not last-writer-wins
// gauges), and a bounded ring of recent run summaries with their span
// trees. The /metrics, /healthz, /runs, and /spans endpoints all render
// from one Aggregator; spmdrun feeds the process-wide Default().
//
// The per-group profile rollup uses profile.Merge, which adds run counts,
// ops, and log-scale sketch buckets exactly — so the aggregated quantiles
// over N runs equal `spmdprof merge` of those runs' profile files.
type Aggregator struct {
	mu       sync.Mutex
	start    time.Time
	ringCap  int
	runs     int64
	errors   int64
	retries  int64
	seqFalls int64
	lastOut  string
	ring     []runEntry // oldest first; len <= ringCap
	groups   map[string]*group
}

type runEntry struct {
	sum   RunSummary
	spans *Export
}

type group struct {
	program string
	mode    string
	workers int
	backend string
	runs    int64
	errors  int64
	elapsed profile.Sketch
	prof    *profile.Profile
	// mergeErrs counts profiles dropped from the rollup because they were
	// incompatible with the group's lineage (possible only if GroupKey
	// collides across schedule identities, i.e. never in practice).
	mergeErrs int64
}

// Outcome values for RunSummary.Outcome.
const (
	OutcomeOK    = "ok"
	OutcomeError = "error"
)

// RunSummary is one finished run as the ring buffer and counters see it.
type RunSummary struct {
	TraceID     string `json:"trace_id,omitempty"`
	Program     string `json:"program"`
	Mode        string `json:"mode,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	Backend     string `json:"backend,omitempty"`
	Barrier     string `json:"barrier,omitempty"`
	StartUnixNS int64  `json:"start_unix_ns,omitempty"`
	// WallNS is the whole request (lint through report); ElapsedNS is the
	// execution leg only.
	WallNS      int64  `json:"wall_ns,omitempty"`
	ElapsedNS   int64  `json:"elapsed_ns,omitempty"`
	Outcome     string `json:"outcome"`
	Attempts    int    `json:"attempts,omitempty"`
	SeqFallback bool   `json:"seq_fallback,omitempty"`
	Pooled      bool   `json:"pooled,omitempty"`
	Error       string `json:"error,omitempty"`
}

// DefaultRingCap bounds Default()'s /runs ring.
const DefaultRingCap = 128

var (
	defaultOnce sync.Once
	defaultAgg  *Aggregator
)

// Default returns the process-wide aggregator (created on first use).
func Default() *Aggregator {
	defaultOnce.Do(func() { defaultAgg = New(DefaultRingCap) })
	return defaultAgg
}

// New builds an empty aggregator whose run ring keeps the last ringCap
// summaries (and their spans).
func New(ringCap int) *Aggregator {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Aggregator{
		start:   time.Now(),
		ringCap: ringCap,
		groups:  make(map[string]*group),
	}
}

// groupKeyFor mirrors profile.GroupKey when no profile accompanied the
// run (tracing off): same shape, empty identity hashes.
func groupKeyFor(sum RunSummary) string {
	return fmt.Sprintf("%s|||%s|P%d|%s", sum.Program, sum.Mode, sum.Workers, sum.Backend)
}

// Observe folds one finished run in: counters, the group's latency sketch
// and profile rollup, and the recent-run ring. p and spans may be nil.
func (a *Aggregator) Observe(sum RunSummary, p *profile.Profile, spans *Export) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	if sum.Outcome == OutcomeError {
		a.errors++
	}
	if sum.Attempts > 1 {
		a.retries += int64(sum.Attempts - 1)
	}
	if sum.SeqFallback {
		a.seqFalls++
	}
	a.lastOut = sum.Outcome

	key := groupKeyFor(sum)
	if p != nil {
		key = p.GroupKey()
	}
	g := a.groups[key]
	if g == nil {
		g = &group{program: sum.Program, mode: sum.Mode, workers: sum.Workers, backend: sum.Backend}
		if p != nil {
			g.program, g.mode, g.workers, g.backend = p.Program, p.Mode, p.Workers, p.Backend
		}
		a.groups[key] = g
	}
	g.runs++
	if sum.Outcome == OutcomeError {
		g.errors++
	}
	if sum.ElapsedNS > 0 {
		g.elapsed.Add(time.Duration(sum.ElapsedNS))
	}
	if p != nil {
		if g.prof == nil {
			// Merge of one deep-copies, detaching the rollup from the
			// caller's profile.
			if m, err := profile.Merge(p); err == nil {
				g.prof = m
			} else {
				g.mergeErrs++
			}
		} else if m, err := profile.Merge(g.prof, p); err == nil {
			g.prof = m
		} else {
			g.mergeErrs++
		}
	}

	a.ring = append(a.ring, runEntry{sum: sum, spans: spans})
	if len(a.ring) > a.ringCap {
		a.ring = a.ring[len(a.ring)-a.ringCap:]
	}
}

// Recent returns up to n run summaries, newest first (all when n <= 0).
func (a *Aggregator) Recent(n int) []RunSummary {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n <= 0 || n > len(a.ring) {
		n = len(a.ring)
	}
	out := make([]RunSummary, 0, n)
	for i := len(a.ring) - 1; i >= len(a.ring)-n; i-- {
		out = append(out, a.ring[i].sum)
	}
	return out
}

// Spans returns the span export recorded for traceID, or nil when the
// trace is unknown, evicted from the ring, or ran without spans.
func (a *Aggregator) Spans(traceID string) *Export {
	if a == nil || traceID == "" {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := len(a.ring) - 1; i >= 0; i-- {
		if a.ring[i].sum.TraceID == traceID {
			return a.ring[i].spans
		}
	}
	return nil
}

// GroupSnapshot is one kernel group's aggregated state.
type GroupSnapshot struct {
	Key     string
	Program string
	Mode    string
	Workers int
	Backend string
	Runs    int64
	Errors  int64
	// Elapsed is the per-run execution-latency sketch (whole-run elapsed,
	// not per-site wait; the merged Profile carries those).
	Elapsed profile.Sketch
	// Profile is the exact cross-run rollup (profile.Merge semantics);
	// nil when no run in the group carried a profile.
	Profile   *profile.Profile
	MergeErrs int64
}

// Snapshot is a consistent copy of the aggregator's state.
type Snapshot struct {
	UptimeNS     int64
	Runs         int64
	Errors       int64
	Retries      int64
	SeqFallbacks int64
	LastOutcome  string
	Groups       []GroupSnapshot // sorted by Key
}

// Snapshot copies the aggregator state for rendering.
func (a *Aggregator) Snapshot() Snapshot {
	if a == nil {
		return Snapshot{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Snapshot{
		UptimeNS:     time.Since(a.start).Nanoseconds(),
		Runs:         a.runs,
		Errors:       a.errors,
		Retries:      a.retries,
		SeqFallbacks: a.seqFalls,
		LastOutcome:  a.lastOut,
	}
	keys := make([]string, 0, len(a.groups))
	for k := range a.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := a.groups[k]
		gs := GroupSnapshot{
			Key: k, Program: g.program, Mode: g.mode,
			Workers: g.workers, Backend: g.backend,
			Runs: g.runs, Errors: g.errors,
			Elapsed:   g.elapsed,
			MergeErrs: g.mergeErrs,
		}
		if g.prof != nil {
			// The rollup is only ever replaced (Merge allocates a fresh
			// profile), never mutated in place, so sharing the pointer
			// with the snapshot is safe.
			gs.Profile = g.prof
		}
		s.Groups = append(s.Groups, gs)
	}
	return s
}
