package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/profile"
)

// mkProfile builds a one-run profile whose site 2 waits center on base.
func mkProfile(t *testing.T, base time.Duration) *profile.Profile {
	t.Helper()
	p := &profile.Profile{
		Schema: profile.Schema, Program: "jacobi2d",
		ProgramHash: "p", ScheduleHash: "s",
		Mode: "spmd", Workers: 4, Backend: "closure", Barrier: "central",
		Runs: 1, SpanNS: 1_000_000,
	}
	sp := profile.SiteProfile{Site: 2, Kind: "neighbor", Ops: 32}
	for i := 0; i < 32; i++ {
		sp.Wait.Add(base + time.Duration(i)*base/100)
	}
	p.Sites = []profile.SiteProfile{sp}
	return p
}

func writeProfile(t *testing.T, dir, name string, p *profile.Profile) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := profile.WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMergeSingleByteIdentity is the determinism gate in miniature:
// merging one profile must re-emit its exact bytes on stdout.
func TestMergeSingleByteIdentity(t *testing.T) {
	dir := t.TempDir()
	path := writeProfile(t, dir, "p.json", mkProfile(t, 100*time.Microsecond))
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"merge", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("merge of one profile not byte-identical:\n%s\nvs\n%s", stdout.Bytes(), want)
	}
}

// TestMergeToFile: -o writes the rollup and stdout stays empty.
func TestMergeToFile(t *testing.T) {
	dir := t.TempDir()
	a := writeProfile(t, dir, "a.json", mkProfile(t, 100*time.Microsecond))
	b := writeProfile(t, dir, "b.json", mkProfile(t, 110*time.Microsecond))
	out := filepath.Join(dir, "m.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"merge", "-o", out, a, b}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout not empty with -o: %q", stdout.String())
	}
	m, err := profile.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs != 2 || m.Site(2).Wait.Count != 64 {
		t.Fatalf("bad rollup: runs=%d count=%d", m.Runs, m.Site(2).Wait.Count)
	}
}

// TestDiffExitCodes: regression → 1 with the site named; clean → 0.
func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	old := writeProfile(t, dir, "old.json", mkProfile(t, 100*time.Microsecond))
	slow := writeProfile(t, dir, "slow.json", mkProfile(t, 5*time.Millisecond))
	same := writeProfile(t, dir, "same.json", mkProfile(t, 102*time.Microsecond))

	var stdout, stderr bytes.Buffer
	if code := run([]string{"diff", old, slow}, &stdout, &stderr); code != 1 {
		t.Fatalf("regressed diff exit %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "regression") || !strings.Contains(stdout.String(), "2") {
		t.Fatalf("diff table lacks flagged site:\n%s", stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"diff", old, same}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean diff exit %d, want 0\n%s", code, stdout.String())
	}
	if strings.Contains(stdout.String(), "regression\n") {
		t.Fatalf("clean diff flagged a regression:\n%s", stdout.String())
	}
}

// TestMergeOverflowWritesNothing: a rollup whose sketch count would pass
// 2^63-1 fails, and -o leaves no file behind that the reader would reject.
func TestMergeOverflowWritesNothing(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "full.json")
	full := `{"schema_version":1,"tool":"spmd-profile","payload":{"profile_schema":1,` +
		`"program":"p","program_hash":"h","schedule_hash":"s","mode":"spmd","workers":2,` +
		`"backend":"closure","runs":1,"span_ns":1,"sites":[{"site":1,"kind":"barrier","ops":1,` +
		`"wait":{"count":9223372036854775807,"sum_ns":0,"buckets":[[0,9223372036854775807]]}}]}}`
	if err := os.WriteFile(in, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "merged.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"merge", "-o", out, in, in}, &stdout, &stderr); code == 0 {
		t.Fatalf("merge of an overflowing count exited 0, stderr: %s", stderr.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("merge wrote %s despite failing (stat err %v)", out, err)
	}
}

// TestTop renders the ranked site table.
func TestTop(t *testing.T) {
	dir := t.TempDir()
	path := writeProfile(t, dir, "p.json", mkProfile(t, 100*time.Microsecond))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"top", "-n", "5", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "jacobi2d") || !strings.Contains(out, "neighbor") {
		t.Fatalf("top output missing program/site rows:\n%s", out)
	}
}

// TestLedgerWatch: a ledger whose latest run regressed exits 1 and names
// the site; without the regressed run it exits 0.
func TestLedgerWatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	appendRec := func(base time.Duration, ts int64) {
		rec := &profile.LedgerRecord{
			TimeUnixNS: ts,
			Result:     profile.RunMeta{Verdict: "PASS", WallNS: 1_000_000},
			Profile:    mkProfile(t, base),
		}
		if err := profile.AppendLedger(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		appendRec(100*time.Microsecond+time.Duration(i)*time.Microsecond, int64(i))
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"ledger", "-watch", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean ledger watch exit %d\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "quiet") {
		t.Fatalf("clean watch not reported quiet:\n%s", stdout.String())
	}
	appendRec(5*time.Millisecond, 99) // the regression
	stdout.Reset()
	if code := run([]string{"ledger", "-watch", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("regressed ledger watch exit %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "worst site 2") {
		t.Fatalf("watch did not name the regressed site:\n%s", stdout.String())
	}
	// Without -watch the same ledger only summarizes: exit 0.
	stdout.Reset()
	if code := run([]string{"ledger", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("summary-only ledger exit %d\n%s", code, stdout.String())
	}
}

// TestUsageErrors: bad invocations exit 2 without touching stdout.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"merge"},
		{"diff", "one.json"},
		{"top"},
		{"ledger"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("args %v: usage error wrote stdout: %q", args, stdout.String())
		}
	}
}

// TestIncompatibleInputs: merging profiles from different programs fails
// with exit 1 and a named field.
func TestIncompatibleInputs(t *testing.T) {
	dir := t.TempDir()
	a := writeProfile(t, dir, "a.json", mkProfile(t, time.Microsecond))
	other := mkProfile(t, time.Microsecond)
	other.ProgramHash = "different"
	b := writeProfile(t, dir, "b.json", other)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"merge", a, b}, &stdout, &stderr); code != 1 {
		t.Fatalf("incompatible merge exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "program_hash") {
		t.Fatalf("error does not name the field: %s", stderr.String())
	}
}

// TestLedgerPrintsTraceID: `spmdprof ledger` surfaces the latest run's
// trace id so it can be joined against -spans exports.
func TestLedgerPrintsTraceID(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	rec := &profile.LedgerRecord{
		TimeUnixNS: 1,
		TraceID:    "deadbeefcafef00d",
		Result:     profile.RunMeta{Verdict: "PASS", WallNS: 2_000_000},
		Profile:    mkProfile(t, 100*time.Microsecond),
	}
	if err := profile.AppendLedger(path, rec); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"ledger", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "trace=deadbeefcafef00d") {
		t.Fatalf("ledger summary missing trace id:\n%s", out)
	}
	if !strings.Contains(out, "verdict=PASS") {
		t.Fatalf("ledger summary missing verdict:\n%s", out)
	}
}
