package profile

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/envelope"
	"repro/internal/remarks"
)

// sample builds a one-run profile with two sites for the unit tests.
func sample(seed int64) *Profile {
	p := &Profile{
		Schema: Schema, Program: "jacobi2d",
		ProgramHash: "aaaaaaaaaaaaaaaaaaaaaaaa", ScheduleHash: "bbbbbbbbbbbbbbbbbbbbbbbb",
		Mode: "opt", Workers: 4, Backend: "chan", Barrier: "tree",
		ChaosSeed: seed, Runs: 1, SpanNS: 1_000_000,
	}
	s1 := SiteProfile{Site: 1, Kind: "barrier", Ops: 40, Episodes: 10,
		SlackSumNS: 500_000, MaxSlackNS: 90_000, LastByWorker: []int64{1, 2, 3, 4}}
	for i := 0; i < 40; i++ {
		s1.Wait.Add(time.Duration(10_000 + i*1_000))
	}
	s2 := SiteProfile{Site: 3, Kind: "counter", Ops: 16}
	for i := 0; i < 16; i++ {
		s2.Wait.Add(time.Duration(2_000 + i*500))
	}
	p.Sites = []SiteProfile{s1, s2}
	return p
}

// TestProfileGoldenByteStability is the satellite golden test: the
// serialized envelope of a fixed profile must match a pinned golden byte
// string exactly, and decode → encode must reproduce it byte for byte.
func TestProfileGoldenByteStability(t *testing.T) {
	p := &Profile{
		Schema: Schema, Program: "demo",
		ProgramHash: "0123456789abcdef01234567", ScheduleHash: "fedcba9876543210fedcba98",
		Mode: "opt", Workers: 2, Backend: "chan", Runs: 1, SpanNS: 1000,
	}
	var sp SiteProfile
	sp.Site, sp.Kind, sp.Ops = 1, "barrier", 2
	sp.Wait.Add(3)
	sp.Wait.Add(100)
	p.Sites = []SiteProfile{sp}

	b, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "schema_version": 1,
  "tool": "spmd-profile",
  "payload": {
    "profile_schema": 1,
    "program": "demo",
    "program_hash": "0123456789abcdef01234567",
    "schedule_hash": "fedcba9876543210fedcba98",
    "mode": "opt",
    "workers": 2,
    "backend": "chan",
    "runs": 1,
    "span_ns": 1000,
    "sites": [
      {
        "site": 1,
        "kind": "barrier",
        "ops": 2,
        "wait": {
          "count": 2,
          "sum_ns": 103,
          "min_ns": 3,
          "max_ns": 100,
          "buckets": [
            [
              3,
              1
            ],
            [
              36,
              1
            ]
          ]
        }
      }
    ]
  }
}
`
	if string(b) != golden {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", b, golden)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Encode(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("decode→encode not a fixed point:\n%s\nvs\n%s", b, b2)
	}
}

// TestEncodeSortsSites: emitters may build Sites in any order; Encode must
// canonicalize to ascending site id (the byte-stability satellite).
func TestEncodeSortsSites(t *testing.T) {
	p := sample(0)
	p.Sites[0], p.Sites[1] = p.Sites[1], p.Sites[0] // scramble
	b, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Sites[0].Site != 1 || back.Sites[1].Site != 3 {
		t.Fatalf("sites not sorted: %d, %d", back.Sites[0].Site, back.Sites[1].Site)
	}
}

// TestMergeSingleIsIdentity: merging one profile must reproduce its exact
// bytes — the fixed point the check.sh determinism gate asserts through
// `spmdprof merge`.
func TestMergeSingleIsIdentity(t *testing.T) {
	p := sample(0)
	b1, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge(p)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("merge of one profile is not an identity:\n%s\nvs\n%s", b1, b2)
	}
}

// TestMergeAggregates: counts, spans, imbalance vectors and run totals add;
// mixed chaos seeds surface as -1.
func TestMergeAggregates(t *testing.T) {
	a, b := sample(0), sample(42)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs != 2 || m.SpanNS != 2_000_000 {
		t.Fatalf("runs=%d span=%d, want 2 / 2000000", m.Runs, m.SpanNS)
	}
	if m.ChaosSeed != -1 {
		t.Fatalf("mixed seeds gave ChaosSeed=%d, want -1", m.ChaosSeed)
	}
	s1 := m.Site(1)
	if s1 == nil || s1.Ops != 80 || s1.Wait.Count != 80 || s1.Episodes != 20 {
		t.Fatalf("site 1 not aggregated: %+v", s1)
	}
	if s1.LastByWorker[3] != 8 {
		t.Fatalf("LastByWorker not summed: %v", s1.LastByWorker)
	}
	w, share, ok := s1.Straggler()
	if !ok || w != 3 || share != 0.4 {
		t.Fatalf("straggler = %d/%.2f/%v, want 3/0.40/true", w, share, ok)
	}
	if got := time.Duration(s1.SlackSumNS / s1.Episodes); got != 50*time.Microsecond {
		t.Fatalf("mean slack %v, want 50µs", got)
	}
}

// TestMergeRejectsIncompatible: any identity-field mismatch refuses, and
// the error names the field.
func TestMergeRejectsIncompatible(t *testing.T) {
	a := sample(0)
	b := sample(0)
	b.ProgramHash = "cccccccccccccccccccccccc"
	if _, err := Merge(a, b); err == nil || !strings.Contains(err.Error(), "program_hash") {
		t.Fatalf("want program_hash mismatch error, got %v", err)
	}
	c := sample(0)
	c.Sites[0].Kind = "counter"
	if _, err := Merge(a, c); err == nil || !strings.Contains(err.Error(), "site 1") {
		t.Fatalf("want site-kind mismatch error, got %v", err)
	}
}

// TestMergeRejectsOverflow: a merged count or sum that does not fit in
// int64 is an error, not a wrapped value the reader would then reject.
func TestMergeRejectsOverflow(t *testing.T) {
	const big = "9223372036854775807"
	for _, c := range [][]string{
		{`"count":1,`, `"count":` + big + `,`, `[[5,1]]`, `[[5,` + big + `]]`},
		{`"runs":1`, `"runs":` + big},
		{`"span_ns":1`, `"span_ns":` + big},
		{`"ops":3`, `"ops":` + big},
		{`"episodes":1`, `"episodes":` + big},
		{`"slack_sum_ns":2`, `"slack_sum_ns":` + big},
		{`"last_by_worker":[0,1]`, `"last_by_worker":[0,` + big + `]`},
		{`"scans":4`, `"scans":` + big},
		{`"empty_crossings":6`, `"empty_crossings":` + big},
		{`"wait_crossings":7`, `"wait_crossings":` + big},
		{`"conservative":8`, `"conservative":` + big},
	} {
		b := strings.NewReplacer(c...).Replace(fullSite)
		q, err := Decode([]byte(b))
		if err != nil {
			t.Fatalf("%s: %v", c[1], err)
		}
		if _, err := Merge(q, q); err == nil {
			t.Errorf("%s: Merge(q, q) succeeded, want an overflow error", c[1])
		}
	}
}

// TestDiffFlagsRegression: a site whose p99 wait grows well past both
// noise bars must be ranked first and flagged; an untouched site stays
// noise.
func TestDiffFlagsRegression(t *testing.T) {
	old := sample(0)
	cand := sample(0)
	// Inflate site 3's waits in the candidate by ~100x.
	s := cand.Site(3)
	s.Wait = Sketch{}
	for i := 0; i < 16; i++ {
		s.Wait.Add(time.Duration(2_000_000 + i*100_000))
	}
	rep, err := Diff(old, cand)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 1 || rep.Improvements != 0 {
		t.Fatalf("regressions=%d improvements=%d, want 1/0\n%s", rep.Regressions, rep.Improvements, rep.Render())
	}
	top := rep.TopRegression()
	if top == nil || top.Site != 3 {
		t.Fatalf("top regression %+v, want site 3", top)
	}
	if rep.Rows[0].Site != 3 {
		t.Fatalf("regression not ranked first: %+v", rep.Rows[0])
	}
	// The mirror image is an improvement.
	rep2, err := Diff(cand, old)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Improvements != 1 || rep2.Regressions != 0 {
		t.Fatalf("reverse diff: regressions=%d improvements=%d, want 0/1", rep2.Regressions, rep2.Improvements)
	}
}

// TestDiffQuietOnNoise: shifts inside the thresholds produce no verdicts
// (the "stays quiet on two clean runs" acceptance leg, in miniature).
func TestDiffQuietOnNoise(t *testing.T) {
	old := sample(0)
	cand := sample(0)
	s := cand.Site(1)
	s.Wait = Sketch{}
	for i := 0; i < 40; i++ {
		s.Wait.Add(time.Duration(11_000 + i*1_100)) // ~10% shift, well under bars
	}
	rep, err := Diff(old, cand)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 || rep.Improvements != 0 {
		t.Fatalf("clean diff produced verdicts:\n%s", rep.Render())
	}
}

// TestDiffMinWaits: a huge shift on a 1-sample site is still noise.
func TestDiffMinWaits(t *testing.T) {
	old := sample(0)
	cand := sample(0)
	old.Sites = append(old.Sites, SiteProfile{Site: 7, Kind: "neighbor", Ops: 1})
	sp := SiteProfile{Site: 7, Kind: "neighbor", Ops: 1}
	sp.Wait.Add(50 * time.Millisecond)
	cand.Sites = append(cand.Sites, sp)
	rep, err := Diff(old, cand)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row.Site == 7 && row.Verdict != VerdictNoise {
			t.Fatalf("1-wait site judged %q, want noise", row.Verdict)
		}
	}
}

// TestLedgerRoundTrip: append N records, read them back, and merge the
// profiles of one group.
func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	for i := 0; i < 3; i++ {
		rec := &LedgerRecord{
			TimeUnixNS: int64(1000 + i),
			Result:     RunMeta{Verdict: "PASS", WallNS: 5_000_000, Checksum: "deadbeef"},
			Costs:      &remarks.Costs{Total: time.Millisecond, FMSystems: 7},
			Profile:    sample(0),
		}
		if err := AppendLedger(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	if recs[1].TimeUnixNS != 1001 || recs[1].Result.Verdict != "PASS" || recs[1].Costs.FMSystems != 7 {
		t.Fatalf("record 1 mangled: %+v", recs[1])
	}
	ps := make([]*Profile, len(recs))
	for i, r := range recs {
		ps[i] = r.Profile
	}
	m, err := Merge(ps...)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs != 3 || m.Site(1).Wait.Count != 120 {
		t.Fatalf("ledger merge: runs=%d site1.count=%d", m.Runs, m.Site(1).Wait.Count)
	}
	// A torn/blank trailing line must not break the reader: a blank line,
	// then half a record as a crash mid-append leaves it, lose nothing but
	// that half record, and the next append starts on a line of its own.
	line, err := envelope.WrapLine(envelope.ToolLedger, recs[0])
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("\n")
	f.Write(line[:len(line)/2])
	f.Close()
	if recs, err = ReadLedgerFile(path); err != nil || len(recs) != 3 {
		t.Fatalf("blank and torn trailing lines: %d recs, err=%v", len(recs), err)
	}
	if err := AppendLedger(path, recs[2]); err != nil {
		t.Fatal(err)
	}
	if recs, err = ReadLedgerFile(path); err != nil || len(recs) != 4 {
		t.Fatalf("append after a torn line: %d recs, err=%v", len(recs), err)
	}
	if recs[3].TimeUnixNS != 1002 {
		t.Fatalf("appended record mangled: %+v", recs[3])
	}
}

// TestDecodeRejectsWrongTool: a run-result envelope is not a profile.
func TestDecodeRejectsWrongTool(t *testing.T) {
	b := []byte(`{"schema_version":1,"tool":"spmdrun","payload":{"x":1}}`)
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "spmdrun") {
		t.Fatalf("want wrong-tool error, got %v", err)
	}
}

// TestDecodeRejectsFutureSchema: payloads from a newer build refuse.
func TestDecodeRejectsFutureSchema(t *testing.T) {
	p := sample(0)
	p.Schema = Schema + 1
	b, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

// TestHashBytes pins the truncated-sha256 format.
func TestHashBytes(t *testing.T) {
	h := HashBytes([]byte("hello"))
	if len(h) != 24 {
		t.Fatalf("hash %q has length %d, want 24", h, len(h))
	}
	if h != HashBytes([]byte("hello")) || h == HashBytes([]byte("world")) {
		t.Fatal("hash not deterministic or not discriminating")
	}
}
