package telemetry

import (
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestNilTraceSafe: every method on a nil *Trace is a no-op returning the
// zero value — call sites thread a possibly-nil trace without guards.
func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	if id := tr.Start(0, "x"); id != 0 {
		t.Fatalf("nil Start = %d, want 0", id)
	}
	tr.End(3)
	tr.SetAttr(1, "k", "v")
	tr.SetProgram("p")
	if id := tr.Add(0, "y", time.Now(), time.Second); id != 0 {
		t.Fatalf("nil Add = %d, want 0", id)
	}
	tr.Finish()
	if tr.ID() != "" || tr.WallNS() != 0 {
		t.Fatal("nil accessors must return zero values")
	}
	if tr.Spans() != nil || tr.Export() != nil {
		t.Fatal("nil Spans/Export must return nil")
	}
	if !tr.Epoch().IsZero() {
		t.Fatal("nil Epoch must be zero")
	}
}

// TestSpanLifecycle pins the id assignment (sequential, root = 1), parent
// defaulting, attribute attachment, and End idempotency.
func TestSpanLifecycle(t *testing.T) {
	tr := NewTrace()
	if sp := tr.Spans(); len(sp) != 1 || sp[0].ID != 1 {
		t.Fatalf("root span = %+v, want one span with id 1", sp)
	}
	a := tr.Start(0, "compile")
	b := tr.Start(a, "deps")
	if a != 2 || b != 3 {
		t.Fatalf("span ids = %d,%d, want 2,3", a, b)
	}
	tr.SetAttr(a, "fm_systems", "4")
	tr.End(b)
	tr.End(a)
	spans := tr.Spans()
	if spans[1].Parent != 1 || spans[2].Parent != a {
		t.Fatalf("parents = %d,%d, want 1,%d", spans[1].Parent, spans[2].Parent, a)
	}
	if spans[1].Attrs["fm_systems"] != "4" {
		t.Fatalf("attrs = %v", spans[1].Attrs)
	}
	if spans[1].DurNS < 0 || spans[2].DurNS < 0 {
		t.Fatal("ended spans must have non-negative durations")
	}
	dur := spans[1].DurNS
	tr.End(a) // second End is a no-op
	if got := tr.Spans()[1].DurNS; got != dur {
		t.Fatalf("second End changed duration %d -> %d", dur, got)
	}
	tr.End(99) // unknown id is a no-op
}

// TestAddClampsPreEpoch: retrospective spans that began before the trace
// existed are clamped to offset 0, not negative.
func TestAddClampsPreEpoch(t *testing.T) {
	tr := NewTrace()
	id := tr.Add(0, "warmup", time.Now().Add(-time.Hour), 5*time.Millisecond)
	sp := tr.Spans()[id-1]
	if sp.StartNS != 0 {
		t.Fatalf("pre-epoch StartNS = %d, want 0", sp.StartNS)
	}
	if sp.DurNS != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("DurNS = %d", sp.DurNS)
	}
}

// TestFinishClosesOpenSpans: Finish credits every open span (including
// the root) up to now; Export then reports the root duration as WallNS.
func TestFinishClosesOpenSpans(t *testing.T) {
	tr := NewTrace()
	open := tr.Start(0, "execute")
	tr.Finish()
	exp := tr.Export()
	if exp.WallNS < 0 || exp.Spans[0].DurNS != exp.WallNS {
		t.Fatalf("root duration %d vs wall %d", exp.Spans[0].DurNS, exp.WallNS)
	}
	if exp.Spans[open-1].DurNS < 0 {
		t.Fatal("Finish left a span open")
	}
	if exp.TraceID != tr.ID() {
		t.Fatalf("export trace id %q != %q", exp.TraceID, tr.ID())
	}
}

// TestNewTraceID: 16 lowercase hex digits, distinct across calls.
func TestNewTraceID(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{16}$`)
	a, b := NewTraceID(), NewTraceID()
	if !re.MatchString(a) || !re.MatchString(b) {
		t.Fatalf("ids %q, %q not 16-hex", a, b)
	}
	if a == b {
		t.Fatalf("ids collide: %q", a)
	}
}

// TestRenderTree pins the text rendering: indentation by depth, children
// in start order, attrs sorted by key, no timing fields.
func TestRenderTree(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "run", StartNS: 0, DurNS: 100},
		{ID: 2, Parent: 1, Name: "compile", StartNS: 1, DurNS: 10,
			Attrs: map[string]string{"b": "2", "a": "1"}},
		{ID: 3, Parent: 2, Name: "deps", StartNS: 2, DurNS: 3},
		{ID: 4, Parent: 1, Name: "execute", StartNS: 20, DurNS: 50},
	}
	got := RenderTree(spans, true)
	want := "run\n  compile {a=1, b=2}\n    deps\n  execute\n"
	if got != want {
		t.Fatalf("RenderTree:\n%q\nwant\n%q", got, want)
	}
	if strings.Contains(RenderTree(spans, false), "{") {
		t.Fatal("withAttrs=false must not render attrs")
	}
}
