package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/envelope"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// chromeEvent is the part of a Chrome trace event the tests read.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Dur  *float64       `json:"dur"`
	Args map[string]any `json:"args"`
}

// chromeFile is a decoded -trace file: its lifecycle slices and the
// run_metadata pairs.
type chromeFile struct {
	lifecycle []chromeEvent
	meta      map[string]any
}

func readChrome(t *testing.T, path string) chromeFile {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file is not Chrome JSON: %v", err)
	}
	var f chromeFile
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Cat == "lifecycle":
			f.lifecycle = append(f.lifecycle, ev)
		case ev.Ph == "M" && ev.Name == "run_metadata":
			f.meta = ev.Args
		}
	}
	return f
}

// runJSON runs spmdrun with args and decodes its -json envelope.
func runJSON(t *testing.T, args ...string) runPayload {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	env, err := envelope.Decode(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var pay runPayload
	if err := env.Into(&pay); err != nil {
		t.Fatal(err)
	}
	return pay
}

// TestTraceFlagEndToEnd is the acceptance round trip: one `-trace -json`
// invocation yields an envelope stamped with the trace id and the request
// wall, and a Chrome file whose lifecycle track covers every phase, whose
// root slice is that wall and whose top-level phases sum to it within 5%.
func TestTraceFlagEndToEnd(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	pay := runJSON(t, "-kernel", "jacobi1d", "-p", "4", "-json", "-trace", tracePath)
	if pay.TraceID == "" {
		t.Fatal("envelope missing trace_id")
	}
	if pay.WallNS <= 0 {
		t.Fatalf("envelope wall_ns = %d", pay.WallNS)
	}

	f := readChrome(t, tracePath)
	if f.meta["trace_id"] != pay.TraceID {
		t.Fatalf("trace ids diverge: trace file %v vs envelope %q", f.meta["trace_id"], pay.TraceID)
	}
	names := map[string]bool{}
	var phaseSum float64
	for _, ev := range f.lifecycle {
		names[ev.Name] = true
		if ev.Ph != "X" || ev.Dur == nil {
			t.Fatalf("lifecycle slice %q is not a complete event", ev.Name)
		}
		switch ev.Args["parent_id"] {
		case 0.0:
			if got := *ev.Dur * 1e3; math.Abs(got-float64(pay.WallNS)) > 1e3 {
				t.Errorf("root slice %.0f ns, envelope wall_ns %d", got, pay.WallNS)
			}
		case 1.0:
			phaseSum += *ev.Dur * 1e3
		}
	}
	for _, want := range []string{
		telemetry.RootName, "compile", "execute", "setup",
		"team run", "verify",
	} {
		if !names[want] {
			t.Errorf("lifecycle track missing phase %q (have %v)", want, names)
		}
	}
	ratio := phaseSum / float64(pay.WallNS)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("phase sum / wall = %.3f (sum %.0f, wall %d), want within ±5%%",
			ratio, phaseSum, pay.WallNS)
	}
}

// TestTraceIDJoinsEnvelopeLedgerAndSpans: the same trace id lands in the
// run envelope, the ledger record and the Chrome file's run_metadata,
// whose lifecycle track carries the spans — the cross-artifact join key.
func TestTraceIDJoinsEnvelopeLedgerAndSpans(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	tracePath := filepath.Join(dir, "trace.json")
	pay := runJSON(t, "-kernel", "jacobi1d", "-p", "4", "-trace", tracePath,
		"-json", "-ledger", ledgerPath)
	if pay.TraceID == "" {
		t.Fatal("envelope missing trace_id")
	}

	recs, err := profile.ReadLedgerFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("ledger records = %d, want 1", len(recs))
	}
	if recs[0].TraceID != pay.TraceID {
		t.Fatalf("ledger trace id %q != envelope %q", recs[0].TraceID, pay.TraceID)
	}

	f := readChrome(t, tracePath)
	if len(f.lifecycle) == 0 {
		t.Fatal("trace file has no lifecycle track")
	}
	if f.meta["trace_id"] != pay.TraceID {
		t.Fatalf("trace file trace id %v != envelope %q", f.meta["trace_id"], pay.TraceID)
	}
}

// TestSpansOffStillStampsTraceID: without -trace no lifecycle spans are
// collected, so the envelope carries a trace id (runs always get one, and
// the ledger still joins) but no wall_ns — also when -report forces the
// sync-event recording.
func TestSpansOffStillStampsTraceID(t *testing.T) {
	for _, args := range [][]string{
		{"-kernel", "jacobi1d", "-p", "4", "-json"},
		{"-kernel", "jacobi1d", "-p", "4", "-json", "-report"},
	} {
		pay := runJSON(t, args...)
		if pay.TraceID == "" {
			t.Fatalf("%v: a run without -trace must still stamp a trace id", args)
		}
		if pay.WallNS != 0 {
			t.Fatalf("%v: wall_ns = %d, want omitted without -trace", args, pay.WallNS)
		}
	}
}
