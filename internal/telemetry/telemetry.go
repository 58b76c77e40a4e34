// Package telemetry is the run-lifecycle span layer: it follows one
// request through lint → compile → certify → pool lease → execute →
// report.
//
// A Trace owns one run's spans. Span ids are small sequential integers
// assigned in Start order, so the span tree of a deterministic pipeline
// is byte-stable across runs once timestamps are stripped; only the
// trace id (the cross-artifact join key stamped into the run envelope
// and the ledger record) is random. All Trace methods are nil-safe
// no-ops, mirroring synctrace.Recorder: callers thread a possibly-nil
// *Trace and never guard call sites.
package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// SpanID names one span within its trace. 0 is "no span": the zero value
// is a valid parent (meaning "child of the root") and the return value of
// every method on a nil Trace.
type SpanID int

// Span is one completed (or still-open, DurNS < 0) lifecycle phase.
// StartNS is relative to the trace's epoch so exports are position-
// independent; attrs carry phase facts (remarks.Costs fields on the
// compile span, exec.Result outcome fields on the execute span).
type Span struct {
	ID      SpanID            `json:"span_id"`
	Parent  SpanID            `json:"parent_id,omitempty"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	DurNS   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Trace collects one run's spans. Create with NewTrace; a nil *Trace is
// the disabled state and absorbs every call.
type Trace struct {
	mu    sync.Mutex
	id    string
	epoch time.Time
	spans []Span // spans[0] is the root ("run"); DurNS < 0 while open
}

// RootName is the name of every trace's root span.
const RootName = "run"

// NewTrace starts a trace whose root span opens now.
func NewTrace() *Trace {
	t := &Trace{id: NewTraceID(), epoch: time.Now()}
	t.spans = append(t.spans, Span{ID: 1, Name: RootName, DurNS: -1})
	return t
}

// NewTraceID returns a fresh 16-hex-digit trace id. Runs that do not
// collect spans still stamp one so envelope and ledger rows join.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively impossible; degrade to a
		// time-derived id rather than failing the run.
		return fmt.Sprintf("%016x", uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace id ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens a span under parent (0 = root) and returns its id.
func (t *Trace) Start(parent SpanID, name string) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 {
		parent = 1
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID:      id,
		Parent:  parent,
		Name:    name,
		StartNS: time.Since(t.epoch).Nanoseconds(),
		DurNS:   -1,
	})
	return id
}

// End closes the span; a second End (or End of an unknown id) is a no-op.
func (t *Trace) End(id SpanID) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) > len(t.spans) {
		return
	}
	sp := &t.spans[id-1]
	if sp.DurNS >= 0 {
		return
	}
	sp.DurNS = time.Since(t.epoch).Nanoseconds() - sp.StartNS
}

// SetAttr attaches a key/value fact to the span.
func (t *Trace) SetAttr(id SpanID, key, val string) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) > len(t.spans) {
		return
	}
	sp := &t.spans[id-1]
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]string)
	}
	sp.Attrs[key] = val
}

// Add records a retrospective, already-finished span (compile sub-phases
// are timed by the compiler's own phase clock and attached afterwards).
// start is an absolute time; spans that began before the trace's epoch
// are clamped to 0.
func (t *Trace) Add(parent SpanID, name string, start time.Time, d time.Duration) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 {
		parent = 1
	}
	off := start.Sub(t.epoch).Nanoseconds()
	if off < 0 {
		off = 0
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID:      id,
		Parent:  parent,
		Name:    name,
		StartNS: off,
		DurNS:   d.Nanoseconds(),
	})
	return id
}

// Finish closes the root span and any span left open (crash-path spans
// get credited up to now rather than dangling with DurNS < 0).
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.epoch).Nanoseconds()
	for i := range t.spans {
		if t.spans[i].DurNS < 0 {
			t.spans[i].DurNS = now - t.spans[i].StartNS
		}
	}
}

// Epoch returns the trace's start time (zero for a nil trace).
func (t *Trace) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// WallNS returns the root span's duration so far (its final value after
// Finish): the whole request, not just the execution leg
// (exec.Result.Elapsed).
func (t *Trace) WallNS() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[0].DurNS >= 0 {
		return t.spans[0].DurNS
	}
	return time.Since(t.epoch).Nanoseconds()
}

// Spans returns a deep copy of the spans recorded so far, in id order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		if out[i].Attrs != nil {
			m := make(map[string]string, len(out[i].Attrs))
			for k, v := range out[i].Attrs {
				m[k] = v
			}
			out[i].Attrs = m
		}
	}
	return out
}
