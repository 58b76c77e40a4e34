package synctrace

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestNilRecorderSafe pins the tracing-off contract: every method is a
// cheap no-op on a nil receiver, so call sites need exactly one branch.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Now() != 0 {
		t.Error("nil Now() != 0")
	}
	r.Record(0, EvBarrier, 0, 1, 0)
	r.Instant(0, EvDispatch, 0, 1)
	if r.Workers() != 0 || r.Recorded() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder reports non-zero state")
	}
	if r.AddSite("x") != NoSite {
		t.Error("nil AddSite != NoSite")
	}
	if got := r.SiteName(3); got != "(unsited)" {
		t.Errorf("nil SiteName = %q", got)
	}
	if r.Events() != nil || r.WorkerEvents(0) != nil || r.Span() != 0 {
		t.Error("nil recorder returns events")
	}
	if s := Summarize(r); s != nil {
		t.Error("Summarize(nil) != nil")
	}
	if err := r.WriteChromeTrace(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil WriteChromeTrace should error")
	}
}

// TestRingWrap verifies that a full ring overwrites the oldest events,
// keeps recording order for the survivors, and counts the drops.
func TestRingWrap(t *testing.T) {
	r := New(2, 4)
	for i := 0; i < 10; i++ {
		r.Instant(0, EvCounterIncr, 0, int64(i))
	}
	r.Instant(1, EvCounterIncr, 0, 99)
	if got := r.Recorded(); got != 11 {
		t.Errorf("Recorded = %d, want 11", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	ev := r.WorkerEvents(0)
	if len(ev) != 4 {
		t.Fatalf("survivors = %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := int64(6 + i); e.Arg != want {
			t.Errorf("survivor %d has Arg %d, want %d (oldest-first order)", i, e.Arg, want)
		}
	}
	if ev := r.WorkerEvents(1); len(ev) != 1 || ev[0].Arg != 99 {
		t.Errorf("worker 1 events = %v", ev)
	}
}

// TestRingGrowsToCap pins the grow-on-demand ring: a recorder costs
// nothing per event it does not hold (New allocates only the padded
// per-worker headers), a ring appends until it reaches its cap, and from
// there wraps exactly as a pre-allocated one did.
func TestRingGrowsToCap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := New(4, DefaultCap)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<10 {
		t.Errorf("New(4, DefaultCap) allocated %d bytes, want < 1 KiB (rings must start empty)", got)
	}
	if r.cap != DefaultCap || len(r.ws[0].ev) != 0 {
		t.Errorf("cap = %d, initial ring len = %d; want DefaultCap and 0", r.cap, len(r.ws[0].ev))
	}

	r = New(1, 8)
	for i := 0; i < 18; i++ {
		r.Instant(0, EvCounterIncr, 0, int64(i))
		if want := min(i+1, 8); len(r.ws[0].ev) != want {
			t.Fatalf("after %d events the ring holds %d, want %d", i+1, len(r.ws[0].ev), want)
		}
	}
	if r.Recorded() != 18 || r.Dropped() != 10 {
		t.Errorf("Recorded/Dropped = %d/%d, want 18/10", r.Recorded(), r.Dropped())
	}
	ev := r.WorkerEvents(0)
	if len(ev) != 8 {
		t.Fatalf("survivors = %d, want 8", len(ev))
	}
	for i, e := range ev {
		if want := int64(10 + i); e.Arg != want {
			t.Errorf("survivor %d has Arg %d, want %d (oldest survivor first)", i, e.Arg, want)
		}
	}
}

// TestSiteInterning checks sequential id assignment and lookup.
func TestSiteInterning(t *testing.T) {
	r := New(1, 8)
	a := r.AddSite("site 1 [barrier]")
	b := r.AddSite("wavefront relay k")
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d,%d, want 0,1", a, b)
	}
	if r.SiteName(b) != "wavefront relay k" || len(r.sites) != 2 {
		t.Error("site lookup broken")
	}
	if r.SiteName(NoSite) != "(unsited)" || r.SiteName(17) != "(unsited)" {
		t.Error("out-of-range site names should be (unsited)")
	}
}

// synth builds a recorder with hand-placed events (bypassing the clock)
// so summary math is checked against exact expectations.
func synth(t *testing.T) *Recorder {
	t.Helper()
	r := New(3, 64)
	r.AddSite("site 1 [barrier]")
	r.AddSite("site 2 [counter]")
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	// Barrier episode 1 at site 0: arrivals at 0ms/2ms/5ms, release 6ms.
	r.push(0, Event{Kind: EvBarrier, Site: 0, Arg: 1, Start: ms(0), End: ms(6)})
	r.push(1, Event{Kind: EvBarrier, Site: 0, Arg: 1, Start: ms(2), End: ms(6)})
	r.push(2, Event{Kind: EvBarrier, Site: 0, Arg: 1, Start: ms(5), End: ms(6)})
	// Barrier episode 2: arrivals 7ms/7ms/9ms, release 9ms.
	r.push(0, Event{Kind: EvBarrier, Site: 0, Arg: 2, Start: ms(7), End: ms(9)})
	r.push(1, Event{Kind: EvBarrier, Site: 0, Arg: 2, Start: ms(7), End: ms(9)})
	r.push(2, Event{Kind: EvBarrier, Site: 0, Arg: 2, Start: ms(9), End: ms(9)})
	// Counter activity at site 1.
	r.push(0, Event{Kind: EvCounterIncr, Site: 1, Arg: 1, Start: ms(10), End: ms(10)})
	r.push(1, Event{Kind: EvCounterWait, Site: 1, Arg: 1, Start: ms(10), End: ms(12)})
	return r
}

func TestSummarize(t *testing.T) {
	s := Summarize(synth(t))
	if s.Workers != 3 || s.Dropped != 0 {
		t.Fatalf("header = %+v", s)
	}
	if s.Span != 12*time.Millisecond {
		t.Errorf("span = %s, want 12ms", s.Span)
	}
	// Barrier waits: 6+4+1 + 2+2+0 = 15ms; counter wait 2ms.
	if got := s.ByKind[EvBarrier].Wait; got != 15*time.Millisecond {
		t.Errorf("barrier wait = %s, want 15ms", got)
	}
	if got := s.ByKind[EvCounterWait].Wait; got != 2*time.Millisecond {
		t.Errorf("counter wait = %s, want 2ms", got)
	}
	if got := s.TotalWait(); got != 17*time.Millisecond {
		t.Errorf("total wait = %s, want 17ms", got)
	}
	if s.ByKind[EvCounterIncr].Count != 1 || s.ByKind[EvCounterIncr].Wait != 0 {
		t.Errorf("incr total = %+v (instants must not add wait)", s.ByKind[EvCounterIncr])
	}
	// Site table: barrier site first (15ms > 2ms).
	if len(s.Sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(s.Sites))
	}
	top := s.Sites[0]
	if top.ID != 0 || top.Kind != EvBarrier ||
		top.Count != 6 || top.Total != 15*time.Millisecond {
		t.Errorf("top site = %+v", top)
	}
	if top.Waits[0] != 0 || top.Max != 6*time.Millisecond {
		t.Errorf("min/max = %s/%s", top.Waits[0], top.Max)
	}
	if top.P50 > top.P99 || top.P99 > top.Max {
		t.Errorf("quantiles not monotone: p50=%s p99=%s max=%s", top.P50, top.P99, top.Max)
	}
	var wait1 time.Duration // every kind's wait at site 1
	for _, ss := range s.Sites {
		if ss.ID == 1 {
			wait1 += ss.Total
		}
	}
	if wait1 != 2*time.Millisecond {
		t.Errorf("site 1 wait = %s, want 2ms", wait1)
	}
	// Imbalance at the barrier site: slacks 5ms and 2ms, straggler w2.
	if len(s.Imbalance) != 1 {
		t.Fatalf("imbalance sites = %d, want 1", len(s.Imbalance))
	}
	im := s.Imbalance[0]
	if im.Episodes != 2 || im.MaxSlack != 5*time.Millisecond ||
		im.SlackSum != 7*time.Millisecond {
		t.Errorf("imbalance = %+v", im)
	}
	if im.Straggler != 2 || im.StragglerShare != 1.0 {
		t.Errorf("straggler = w%d (%.2f), want w2 (1.00)", im.Straggler, im.StragglerShare)
	}
}

// TestSummarizeSiteRow pins one site's row of the fold exactly on events
// with fixed timestamps: three barrier episodes of four workers at site 0,
// beside counter waits at site 1 that must not leak into it.
func TestSummarizeSiteRow(t *testing.T) {
	r := New(4, 64)
	r.AddSite("site 1 [barrier]")
	r.AddSite("site 2 [counter]")
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	// Arrivals per episode, released at the last one: slacks 10, 4 and
	// 7 ms, stragglers w3, w1 and w3.
	for ep, arrive := range [][4]int64{{0, 1, 2, 10}, {20, 24, 21, 22}, {30, 31, 33, 37}} {
		release := slices.Max(arrive[:])
		for w, at := range arrive {
			r.push(w, Event{Kind: EvBarrier, Site: 0, Arg: int64(ep + 1), Start: ms(at), End: ms(release)})
		}
	}
	r.push(1, Event{Kind: EvCounterWait, Site: 1, Arg: 1, Start: ms(40), End: ms(90)})
	r.push(2, Event{Kind: EvCounterWait, Site: 1, Arg: 1, Start: ms(40), End: ms(41)})
	s := Summarize(r)

	var row SiteSummary
	for _, ss := range s.Sites {
		if ss.ID == 0 {
			row = ss
		}
	}
	// Waits, ascending: 0 0 0 2 3 4 4 6 7 8 9 10 ms.
	if row.Kind != EvBarrier || row.Count != 12 || row.Total != 53*time.Millisecond {
		t.Errorf("site 0 row: kind %s, count %d, total %s; want barrier, 12, 53ms", row.Kind, row.Count, row.Total)
	}
	if row.P50 != 4*time.Millisecond || row.P99 != 10*time.Millisecond || row.Max != 10*time.Millisecond {
		t.Errorf("site 0 quantiles: p50 %s, p99 %s, max %s; want 4ms, 10ms, 10ms", row.P50, row.P99, row.Max)
	}
	if len(s.Imbalance) != 1 || s.Imbalance[0].ID != 0 {
		t.Fatalf("imbalance rows %+v, want one for site 0", s.Imbalance)
	}
	im := s.Imbalance[0]
	if im.Episodes != 3 || im.SlackSum != 21*time.Millisecond {
		t.Errorf("site 0 slack: %d episodes summing to %s, want 3 summing to 21ms", im.Episodes, im.SlackSum)
	}
	if im.MaxSlack != 10*time.Millisecond || im.Straggler != 3 ||
		!slices.Equal(im.LastByWorker, []int64{0, 1, 0, 2}) {
		t.Errorf("site 0 imbalance %+v, want max slack 10ms, straggler w3, last by worker [0 1 0 2]", im)
	}
}

// TestChromeTraceSchema validates the exported JSON against the trace-
// event format: object form, per-event required keys, legal phases,
// microsecond timestamps, tids within the team.
func TestChromeTraceSchema(t *testing.T) {
	r := synth(t)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Unit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.Unit)
	}
	// 1 process + 3 thread metadata + 8 events.
	if len(doc.TraceEvents) != 12 {
		t.Fatalf("traceEvents = %d, want 12", len(doc.TraceEvents))
	}
	var spans, instants, meta int
	for _, e := range doc.TraceEvents {
		if _, ok := e["name"].(string); !ok {
			t.Fatalf("event without name: %v", e)
		}
		ph, _ := e["ph"].(string)
		ts, tsOK := e["ts"].(float64)
		tid, tidOK := e["tid"].(float64)
		if !tsOK || !tidOK || ts < 0 || tid < 0 || tid >= 3 {
			t.Fatalf("bad ts/tid: %v", e)
		}
		switch ph {
		case "M":
			meta++
		case "X":
			spans++
			if dur, ok := e["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("X event without dur: %v", e)
			}
		case "i":
			instants++
			if e["s"] != "t" {
				t.Fatalf("instant without scope: %v", e)
			}
		default:
			t.Fatalf("illegal phase %q", ph)
		}
	}
	if meta != 4 || spans != 7 || instants != 1 {
		t.Errorf("meta/spans/instants = %d/%d/%d, want 4/7/1", meta, spans, instants)
	}
}

func TestQuantile(t *testing.T) {
	ds := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(ds, 0); q != 1 {
		t.Errorf("q0 = %d", q)
	}
	if q := quantile(ds, 1); q != 10 {
		t.Errorf("q1 = %d", q)
	}
	if q := quantile(ds, 0.5); q < 5 || q > 6 {
		t.Errorf("q50 = %d", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %d", q)
	}
}
