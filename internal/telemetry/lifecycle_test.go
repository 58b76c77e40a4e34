// Lifecycle tests live in the external package so they can drive the real
// pipeline (core imports telemetry; the reverse would cycle).
package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/suite"
	"repro/internal/telemetry"
)

// jacobiResult runs jacobi2d through the full pipeline (lint, certify,
// profile, report, spans, tracing) and returns the finished result.
func jacobiResult(t *testing.T) *core.Result {
	t.Helper()
	k, err := suite.Get("jacobi2d")
	if err != nil {
		t.Fatal(err)
	}
	req := core.NewRequest(k.Source,
		core.WithParams(k.Params), core.WithWorkers(4),
		core.WithLint(), core.WithCertify(), core.WithTrace(),
		func(r *core.Request) { r.Run.Profile = true }, core.WithReport(), core.WithSpans())
	res, err := core.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res.Telemetry.Finish()
	return res
}

// jacobiTreeGolden is the complete span tree of one jacobi2d request.
// Span ids are assigned in Start order and the pipeline is deterministic,
// so the timing-stripped rendering is byte-stable; any phase added to or
// removed from the lifecycle must update this pin deliberately.
const jacobiTreeGolden = `run
  lint
  compile
    deps
    parallelize
    decomp
    region
    irreg
    syncopt
    baseline
  execute
    setup
    certify
    state
    pool lease
    team run
  profile
  report
`

// TestSpanTreeGolden pins the tree shape of a full pipeline run.
func TestSpanTreeGolden(t *testing.T) {
	res := jacobiResult(t)
	got := telemetry.RenderTree(res.Telemetry.Spans(), false)
	if got != jacobiTreeGolden {
		t.Fatalf("span tree drifted:\n%s\nwant:\n%s", got, jacobiTreeGolden)
	}
}

// TestSpanTreeDeterministic: two identical requests produce identical
// timing-stripped trees (same spans, same ids, same parents), while the
// trace ids — the only random component — differ.
func TestSpanTreeDeterministic(t *testing.T) {
	a, b := jacobiResult(t), jacobiResult(t)
	ra := telemetry.RenderTree(a.Telemetry.Spans(), false)
	rb := telemetry.RenderTree(b.Telemetry.Spans(), false)
	if ra != rb {
		t.Fatalf("trees differ across runs:\n%s\nvs\n%s", ra, rb)
	}
	if a.TraceID == b.TraceID {
		t.Fatalf("trace ids collide: %s", a.TraceID)
	}
	sa, sb := a.Telemetry.Spans(), b.Telemetry.Spans()
	if len(sa) != len(sb) {
		t.Fatalf("span counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].ID != sb[i].ID || sa[i].Parent != sb[i].Parent || sa[i].Name != sb[i].Name {
			t.Fatalf("span %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// TestPhaseDurationsSumToWall is the acceptance bound: the root's direct
// children tile the request end to end, so their durations sum to the
// root wall time within 5%.
func TestPhaseDurationsSumToWall(t *testing.T) {
	res := jacobiResult(t)
	var sum int64
	for _, sp := range res.Telemetry.Spans() {
		if sp.Parent == 1 {
			sum += sp.DurNS
		}
	}
	wall := res.Telemetry.WallNS()
	if wall <= 0 {
		t.Fatalf("wall = %d", wall)
	}
	ratio := float64(sum) / float64(wall)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("phase sum / wall = %.3f (sum %d, wall %d), want within ±5%%",
			ratio, sum, wall)
	}
}

// TestExecuteSpanAttrs: the execute span carries the exec.Result outcome
// fields, the requested worker count and the team width the runner
// leased; the compile span carries the remarks.Costs solver totals.
func TestExecuteSpanAttrs(t *testing.T) {
	res := jacobiResult(t)
	byName := map[string]telemetry.Span{}
	for _, sp := range res.Telemetry.Spans() {
		byName[sp.Name] = sp
	}
	ex, ok := byName["execute"]
	if !ok {
		t.Fatal("no execute span")
	}
	for _, key := range []string{"elapsed_ns", "workers", "width"} {
		if ex.Attrs[key] == "" {
			t.Errorf("execute span missing attr %q (have %v)", key, ex.Attrs)
		}
	}
	co, ok := byName["compile"]
	if !ok {
		t.Fatal("no compile span")
	}
	for _, key := range []string{"fm_systems", "vars_eliminated", "ineqs_generated"} {
		if co.Attrs[key] == "" {
			t.Errorf("compile span missing attr %q (have %v)", key, co.Attrs)
		}
	}

	// jacobi1d at this size narrows to one worker at P=2
	// (exec's width_decisions.golden); a spans-only request keeps the
	// narrowing, and the span says both what was asked and what ran.
	k, err := suite.Get("jacobi1d")
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := core.Do(context.Background(), core.NewRequest(k.Source,
		core.WithParams(map[string]int64{"N": 64, "T": 3000}), core.WithWorkers(2), core.WithSpans()))
	if err != nil {
		t.Fatal(err)
	}
	narrow.Telemetry.Finish()
	var attrs map[string]string
	for _, sp := range narrow.Telemetry.Spans() {
		if sp.Name == "execute" {
			attrs = sp.Attrs
		}
	}
	if attrs["workers"] != "2" || attrs["width"] != "1" {
		t.Errorf("narrowed execute span attrs %v, want workers=2 width=1", attrs)
	}
}

// chromeDoc mirrors the Chrome trace-event JSON for assertions.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestChromeExportInterleavesSpansAndSyncEvents: one Perfetto export
// carries the per-worker sync events on tids 0..P-1 and the lifecycle
// spans as complete events on the dedicated track above them, both on one
// time base: spans sit at their start_ns after the root, and the sync
// events fall inside the team run that produced them.
func TestChromeExportInterleavesSpansAndSyncEvents(t *testing.T) {
	res := jacobiResult(t)
	var buf bytes.Buffer
	if err := res.Trace.WriteChromeTrace(&buf, res.Telemetry.ChromeSpans(res.Trace)); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	workers := res.Trace.Workers()
	lifecycleTid := workers
	var lifecycleNamed bool
	spanNames := map[string]bool{}
	var syncEvents, spanEvents int
	startNS := map[int]int64{}
	for _, sp := range res.Telemetry.Spans() {
		startNS[int(sp.ID)] = sp.StartNS
	}
	// ts and end of the named lifecycle events, in microseconds.
	ts, end := map[string]float64{}, map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "lifecycle" && ev.Dur != nil {
			ts[ev.Name], end[ev.Name] = ev.Ts, ev.Ts+*ev.Dur
		}
	}
	const ns = 1e-3 // float slack on sums of microsecond values
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			if ev.Tid == lifecycleTid && ev.Args["name"] == "lifecycle" {
				lifecycleNamed = true
			}
		case ev.Cat == "lifecycle":
			spanEvents++
			spanNames[ev.Name] = true
			if ev.Tid != lifecycleTid {
				t.Errorf("lifecycle span %q on tid %d, want %d", ev.Name, ev.Tid, lifecycleTid)
			}
			if ev.Ph != "X" || ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("lifecycle span %q not a complete event: ph=%q dur=%v", ev.Name, ev.Ph, ev.Dur)
			}
			id, ok := ev.Args["span_id"].(float64)
			if !ok {
				t.Errorf("lifecycle span %q missing span_id arg", ev.Name)
			}
			// The root starts at start_ns 0, so a span's offset from it in
			// the export must be its start_ns.
			if got, want := ev.Ts-ts["run"], float64(startNS[int(id)])/1e3; math.Abs(got-want) > 1 {
				t.Errorf("lifecycle span %q is %.1f us after run, want %.1f (its start_ns)", ev.Name, got, want)
			}
		case ev.Ph == "X" || ev.Ph == "i":
			syncEvents++
			if ev.Tid < 0 || ev.Tid >= workers {
				t.Errorf("sync event %q on tid %d, want worker 0..%d", ev.Name, ev.Tid, workers-1)
			}
			evEnd := ev.Ts
			if ev.Dur != nil {
				evEnd += *ev.Dur
			}
			if ev.Ts < ts["team run"]-ns || evEnd > end["team run"]+ns {
				t.Errorf("sync event %q [%.3f, %.3f] us outside team run [%.3f, %.3f]",
					ev.Name, ev.Ts, evEnd, ts["team run"], end["team run"])
			}
		}
	}
	if !lifecycleNamed {
		t.Error("no lifecycle thread_name metadata event")
	}
	if syncEvents == 0 {
		t.Error("no per-worker sync events in the export")
	}
	if spanEvents != strings.Count(jacobiTreeGolden, "\n") {
		t.Errorf("lifecycle events = %d, want %d (one per span)",
			spanEvents, strings.Count(jacobiTreeGolden, "\n"))
	}
	for _, want := range []string{"run", "compile", "execute", "team run", "pool lease"} {
		if !spanNames[want] {
			t.Errorf("lifecycle track missing span %q", want)
		}
	}
	if end["compile"] > ts["execute"]+ns {
		t.Errorf("compile ends at %.3f us, after execute starts at %.3f", end["compile"], ts["execute"])
	}
}

// TestChromeExportDeterministicShape: the lifecycle event names of two
// identical runs match exactly (timing varies; structure must not).
func TestChromeExportDeterministicShape(t *testing.T) {
	shape := func() string {
		res := jacobiResult(t)
		var buf bytes.Buffer
		if err := res.Trace.WriteChromeTrace(&buf, res.Telemetry.ChromeSpans(res.Trace)); err != nil {
			t.Fatal(err)
		}
		var doc chromeDoc
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, ev := range doc.TraceEvents {
			if ev.Cat == "lifecycle" {
				names = append(names, ev.Name)
			}
		}
		return strings.Join(names, "|")
	}
	a, b := shape(), shape()
	if a != b {
		t.Fatalf("lifecycle track shape differs:\n%s\nvs\n%s", a, b)
	}
}
