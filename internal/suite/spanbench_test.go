package suite

import (
	"strings"
	"testing"

	"repro/internal/envelope"
)

// TestSpanBenchShape is the fast tier-1 pass: one kernel, two pairs (the
// sampler's minimum) — the report structure, the envelope, the span count.
func TestSpanBenchShape(t *testing.T) {
	rep, err := MeasureSpanBench([]string{"dotchain"}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Kernel != "dotchain" {
		t.Fatalf("rows = %+v", rep.Rows)
	}
	r := rep.Rows[0]
	if r.OffNS <= 0 || r.OnNS <= 0 {
		t.Fatalf("non-positive walls: off=%d on=%d", r.OffNS, r.OnNS)
	}
	// Every full request produces at least run + compile + its sub-phases
	// + execute with setup and one attempt.
	if r.Spans < 8 {
		t.Fatalf("span count = %d, want >= 8", r.Spans)
	}
	if r.NoiseNS < 0 || r.Verdict == "" || r.Regressed != (r.Verdict == Worse) {
		t.Fatalf("row not judged by the sampler: %+v", r)
	}
	var sb strings.Builder
	if err := envelope.Write(&sb, envelope.ToolSpanBench, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"benchtab-spans"`) {
		t.Fatalf("envelope tool missing:\n%s", sb.String())
	}
	var tbl strings.Builder
	TableS(&tbl, rep)
	if !strings.Contains(tbl.String(), "dotchain") {
		t.Fatalf("table missing kernel row:\n%s", tbl.String())
	}
}
