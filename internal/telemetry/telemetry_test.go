package telemetry

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/profile"
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
	if tr.ID() != "" || tr.Root() != 0 || tr.WallNS() != 0 {
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
	if tr.Root() != 1 {
		t.Fatalf("root id = %d, want 1", tr.Root())
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

// TestAggregatorRing: the run ring trims to capacity, Recent returns
// newest first, and span lookups miss once evicted.
func TestAggregatorRing(t *testing.T) {
	ag := New(2)
	mk := func(id string) (RunSummary, *Export) {
		return RunSummary{TraceID: id, Program: "k", Outcome: OutcomeOK},
			&Export{TraceID: id}
	}
	for _, id := range []string{"aa", "bb", "cc"} {
		sum, exp := mk(id)
		ag.Observe(sum, nil, exp)
	}
	recent := ag.Recent(0)
	if len(recent) != 2 || recent[0].TraceID != "cc" || recent[1].TraceID != "bb" {
		t.Fatalf("Recent = %+v, want [cc bb]", recent)
	}
	if got := ag.Recent(1); len(got) != 1 || got[0].TraceID != "cc" {
		t.Fatalf("Recent(1) = %+v", got)
	}
	if ag.Spans("aa") != nil {
		t.Fatal("evicted trace still resolvable")
	}
	if exp := ag.Spans("bb"); exp == nil || exp.TraceID != "bb" {
		t.Fatalf("Spans(bb) = %+v", exp)
	}
	if ag.Spans("") != nil || ag.Spans("zz") != nil {
		t.Fatal("unknown ids must return nil")
	}
}

// TestAggregatorCounters: outcome/attempt/fallback bookkeeping lands in
// Snapshot, and error runs count in both process and group totals.
func TestAggregatorCounters(t *testing.T) {
	ag := New(8)
	ag.Observe(RunSummary{Program: "k", Outcome: OutcomeOK, Attempts: 3}, nil, nil)
	ag.Observe(RunSummary{Program: "k", Outcome: OutcomeError, SeqFallback: true, ElapsedNS: 1000}, nil, nil)
	s := ag.Snapshot()
	if s.Runs != 2 || s.Errors != 1 || s.Retries != 2 || s.SeqFallbacks != 1 {
		t.Fatalf("snapshot counters = %+v", s)
	}
	if s.LastOutcome != OutcomeError {
		t.Fatalf("last outcome = %q", s.LastOutcome)
	}
	if len(s.Groups) != 1 || s.Groups[0].Runs != 2 || s.Groups[0].Errors != 1 {
		t.Fatalf("groups = %+v", s.Groups)
	}
}

// TestAggregatorGrouping: runs with profiles group by the profile's full
// identity key; profile-less runs use the hash-free fallback key, so the
// two never collide into one rollup.
func TestAggregatorGrouping(t *testing.T) {
	ag := New(8)
	p := &profile.Profile{Schema: profile.Schema, Program: "k", ProgramHash: "x",
		ScheduleHash: "y", Mode: "opt", Workers: 4, Backend: "chan", Runs: 1}
	ag.Observe(RunSummary{Program: "k", Mode: "opt", Workers: 4, Backend: "chan",
		Outcome: OutcomeOK}, p, nil)
	ag.Observe(RunSummary{Program: "k", Mode: "opt", Workers: 4, Backend: "chan",
		Outcome: OutcomeOK}, nil, nil)
	s := ag.Snapshot()
	if len(s.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 (keyed vs fallback)", len(s.Groups))
	}
	var withProf, without int
	for _, g := range s.Groups {
		if g.Profile != nil {
			withProf++
			if g.Profile.Runs != 1 {
				t.Fatalf("rollup runs = %d", g.Profile.Runs)
			}
		} else {
			without++
		}
	}
	if withProf != 1 || without != 1 {
		t.Fatalf("withProf=%d without=%d", withProf, without)
	}
}

// TestAggregatorRollupDetached: the rollup must be a deep copy — mutating
// the observed profile afterwards cannot corrupt the aggregate.
func TestAggregatorRollupDetached(t *testing.T) {
	ag := New(8)
	p := &profile.Profile{Schema: profile.Schema, Program: "k", ProgramHash: "x",
		ScheduleHash: "y", Mode: "opt", Workers: 4, Backend: "chan", Runs: 1,
		Sites: []profile.SiteProfile{{Site: 1, Kind: "barrier", Ops: 7}}}
	ag.Observe(RunSummary{Program: p.Program, Mode: p.Mode, Workers: p.Workers,
		Backend: p.Backend, Outcome: OutcomeOK}, p, nil)
	p.Sites[0].Ops = 999
	s := ag.Snapshot()
	if got := s.Groups[0].Profile.Sites[0].Ops; got != 7 {
		t.Fatalf("rollup ops = %d, want 7 (detached copy)", got)
	}
}

// TestNilAggregatorSafe mirrors the nil-trace contract.
func TestNilAggregatorSafe(t *testing.T) {
	var ag *Aggregator
	ag.Observe(RunSummary{}, nil, nil)
	if ag.Recent(1) != nil || ag.Spans("x") != nil {
		t.Fatal("nil aggregator reads must return nil")
	}
	if s := ag.Snapshot(); s.Runs != 0 {
		t.Fatal("nil snapshot must be zero")
	}
}
