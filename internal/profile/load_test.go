package profile

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleProfile() *Profile {
	return &Profile{
		Schema: Schema, Program: "jacobi1d",
		ProgramHash: "p:aaaa", ScheduleHash: "s:bbbb",
		Mode: "spmd", Workers: 4, Backend: "goroutine", Barrier: "central",
		ChaosSeed: 0, Runs: 1, SpanNS: 1000,
		Sites: []SiteProfile{{Site: 1, Kind: "barrier", Ops: 4}},
	}
}

func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.json")
	if err := WriteFile(path, sampleProfile()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func TestLoadRoundTrip(t *testing.T) {
	p, err := ReadFile(writeSample(t))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if p.Program != "jacobi1d" || p.Workers != 4 || len(p.Sites) != 1 {
		t.Fatalf("ReadFile round-trip mangled profile: %+v", p)
	}
}

func TestLoadErrEnvelope(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"garbage.json":    "not json at all",
		"wrong_tool.json": `{"schema_version":1,"tool":"spmdrun","payload":{}}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFile(path)
		if !errors.Is(err, ErrEnvelope) {
			t.Errorf("%s: ReadFile error = %v, want ErrEnvelope", name, err)
		}
		if errors.Is(err, ErrSchema) {
			t.Errorf("%s: ReadFile error wraps ErrSchema too: %v", name, err)
		}
	}
}

func TestLoadErrSchema(t *testing.T) {
	b, err := Encode(sampleProfile())
	if err != nil {
		t.Fatal(err)
	}
	// Bump the payload's profile schema past what this build reads. The
	// envelope schema_version stays valid so the failure is profile-level.
	body := strings.Replace(string(b), `"profile_schema": 1`, `"profile_schema": 999`, 1)
	if body == string(b) {
		t.Fatalf("test setup: schema field not found in encoded profile:\n%s", body)
	}
	path := filepath.Join(t.TempDir(), "future.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadFile(path)
	if !errors.Is(err, ErrSchema) {
		t.Fatalf("ReadFile error = %v, want ErrSchema", err)
	}
	if errors.Is(err, ErrEnvelope) {
		t.Fatalf("ReadFile error wraps ErrEnvelope too: %v", err)
	}
}

func TestMatchIdentitySentinels(t *testing.T) {
	p := sampleProfile()
	if err := p.MatchIdentity("p:aaaa", "s:bbbb"); err != nil {
		t.Fatalf("matching identity rejected: %v", err)
	}
	if err := p.MatchIdentity("p:other", "s:bbbb"); !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("program-hash mismatch error = %v, want ErrHashMismatch", err)
	}
	if err := p.MatchIdentity("p:aaaa", "s:other"); !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("schedule-hash mismatch error = %v, want ErrHashMismatch", err)
	}
}

func TestCompatibleSentinels(t *testing.T) {
	a, b := sampleProfile(), sampleProfile()
	b.Workers = 8
	if err := a.Compatible(b); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("workers mismatch error = %v, want ErrIncompatible", err)
	}
	b = sampleProfile()
	b.ScheduleHash = "s:other"
	err := a.Compatible(b)
	if !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("schedule-hash mismatch error = %v, want ErrHashMismatch", err)
	}
	if errors.Is(err, ErrIncompatible) {
		t.Fatalf("hash mismatch must be distinct from ErrIncompatible: %v", err)
	}
}

func TestLoadLedgerErrEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(path, []byte("{\"schema_version\":1,\"tool\":\"spmdrun\",\"payload\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadLedgerFile(path)
	if !errors.Is(err, ErrEnvelope) {
		t.Fatalf("ReadLedgerFile error = %v, want ErrEnvelope", err)
	}
}

func TestLoadLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	rec := &LedgerRecord{TimeUnixNS: 42, Result: RunMeta{WallNS: 7}, Profile: sampleProfile()}
	if err := AppendLedger(path, rec); err != nil {
		t.Fatalf("AppendLedger: %v", err)
	}
	if err := AppendLedger(path, rec); err != nil {
		t.Fatalf("AppendLedger: %v", err)
	}
	recs, err := ReadLedgerFile(path)
	if err != nil {
		t.Fatalf("ReadLedgerFile: %v", err)
	}
	if len(recs) != 2 || recs[0].Profile.Program != "jacobi1d" {
		t.Fatalf("ReadLedgerFile = %d records, want 2 with profiles", len(recs))
	}
}
