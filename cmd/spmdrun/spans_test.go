package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/envelope"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// readSpans decodes a -spans file, which must be a spmdrun-spans envelope.
func readSpans(t *testing.T, path string) telemetry.Export {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	env, err := envelope.Decode(b)
	if err != nil {
		t.Fatalf("spans file is not an envelope: %v", err)
	}
	if env.Tool != envelope.ToolSpans {
		t.Fatalf("spans tool = %q, want %q", env.Tool, envelope.ToolSpans)
	}
	var exp telemetry.Export
	if err := env.Into(&exp); err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestSpansFlagEndToEnd is the acceptance round trip: one `-spans -json`
// invocation yields (a) an envelope stamped with the trace id and the
// request wall, and (b) a spans file whose tree covers every phase and
// whose top-level phase durations sum to the wall within 5%.
func TestSpansFlagEndToEnd(t *testing.T) {
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "spans.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-kernel", "jacobi1d", "-p", "4", "-json", "-spans", spansPath}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	env, err := envelope.Decode(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var pay runPayload
	if err := env.Into(&pay); err != nil {
		t.Fatal(err)
	}
	if pay.TraceID == "" {
		t.Fatal("envelope missing trace_id")
	}
	if pay.WallNS <= 0 {
		t.Fatalf("envelope wall_ns = %d", pay.WallNS)
	}

	exp := readSpans(t, spansPath)
	if exp.TraceID != pay.TraceID {
		t.Fatalf("trace ids diverge: spans %q vs envelope %q", exp.TraceID, pay.TraceID)
	}
	if exp.WallNS != pay.WallNS {
		t.Fatalf("walls diverge: spans %d vs envelope %d", exp.WallNS, pay.WallNS)
	}
	if exp.Program != pay.Program {
		t.Fatalf("programs diverge: %q vs %q", exp.Program, pay.Program)
	}

	names := map[string]bool{}
	var phaseSum int64
	for _, sp := range exp.Spans {
		names[sp.Name] = true
		if sp.DurNS < 0 {
			t.Errorf("span %q left open (dur %d)", sp.Name, sp.DurNS)
		}
		if sp.Parent == 1 {
			phaseSum += sp.DurNS
		}
	}
	for _, want := range []string{
		telemetry.RootName, "compile", "execute", "setup",
		"team run", "verify",
	} {
		if !names[want] {
			t.Errorf("span tree missing phase %q (have %v)", want, names)
		}
	}
	ratio := float64(phaseSum) / float64(exp.WallNS)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("phase sum / wall = %.3f (sum %d, wall %d), want within ±5%%",
			ratio, phaseSum, exp.WallNS)
	}
}

// TestTraceIDJoinsEnvelopeLedgerAndSpans: the same trace id lands in the
// run envelope, the ledger record and the span export — the
// cross-artifact join key.
func TestTraceIDJoinsEnvelopeLedgerAndSpans(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	spansPath := filepath.Join(dir, "spans.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-kernel", "jacobi1d", "-p", "4", "-json",
		"-ledger", ledgerPath, "-spans", spansPath}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	env, err := envelope.Decode(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var pay runPayload
	if err := env.Into(&pay); err != nil {
		t.Fatal(err)
	}
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

	if exp := readSpans(t, spansPath); exp.TraceID != pay.TraceID {
		t.Fatalf("spans trace id %q != envelope %q", exp.TraceID, pay.TraceID)
	}
}

// TestSpansOffNoTraceInPayloadWall: without spans the envelope still
// carries a trace id (runs always get one) but no wall_ns, and the run
// ledger still joins.
func TestSpansOffStillStampsTraceID(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-kernel", "jacobi1d", "-p", "4", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	env, err := envelope.Decode(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var pay runPayload
	if err := env.Into(&pay); err != nil {
		t.Fatal(err)
	}
	if pay.TraceID == "" {
		t.Fatal("spans-off run must still stamp a trace id")
	}
	if pay.WallNS != 0 {
		t.Fatalf("spans-off wall_ns = %d, want omitted", pay.WallNS)
	}
}
