package profile

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/envelope"
	"repro/internal/remarks"
)

// Encode wraps the profile in the versioned envelope (indented, trailing
// newline) — the `spmdrun -profile-out` / `spmdprof merge -o` file format.
// The profile is normalized first so the bytes are a deterministic
// function of the profile's contents: encode(decode(b)) == b for any b
// this package emitted.
func Encode(p *Profile) ([]byte, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	return envelope.Wrap(envelope.ToolProfile, p)
}

// WriteFile encodes the profile and writes it to path.
func WriteFile(path string, p *Profile) error {
	b, err := Encode(p)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Decode parses an envelope-wrapped profile and validates it.
func Decode(data []byte) (*Profile, error) {
	env, err := envelope.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEnvelope, err)
	}
	if env.Tool != envelope.ToolProfile {
		return nil, fmt.Errorf("%w: envelope is from %q, want %q", ErrEnvelope, env.Tool, envelope.ToolProfile)
	}
	var p Profile
	if err := env.Into(&p); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEnvelope, err)
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	return &p, nil
}

// check is the read side's validation of a decoded profile, shared by
// Decode and ReadLedger: the schema must be one this build reads, and the
// profile must normalize.
func (p *Profile) check() error {
	if p.Schema < 1 || p.Schema > Schema {
		return fmt.Errorf("%w: schema %d (this build reads 1..%d)", ErrSchema, p.Schema, Schema)
	}
	return p.normalize()
}

// ReadFile reads and decodes an envelope-wrapped profile from path. It is
// the one profile reader every consumer (spmdprof, barrierc -fdo, spmdrun
// -profile-in) shares; failures wrap ErrEnvelope or ErrSchema.
func ReadFile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// RunMeta is the result metadata a ledger record carries alongside the
// profile: what the run produced, not just what it waited on.
type RunMeta struct {
	// Verdict is the baseline-vs-optimized comparison verdict ("PASS",
	// "FAIL", or "" when no verification ran).
	Verdict string `json:"verdict,omitempty"`
	// WallNS is the run's wall-clock time.
	WallNS int64 `json:"wall_ns"`
	// Checksum fingerprints the computed output arrays.
	Checksum string `json:"checksum,omitempty"`
}

// LedgerRecord is one append-only ledger line's payload: the run's
// profile, the compile's analysis bill, and the result metadata.
type LedgerRecord struct {
	// TimeUnixNS stamps when the run finished.
	TimeUnixNS int64 `json:"time_unix_ns"`
	// TraceID joins this row with the run's span export and envelope
	// (the id `spmdrun -json` reports; "" for pre-span ledgers).
	TraceID string         `json:"trace_id,omitempty"`
	Result  RunMeta        `json:"result"`
	Costs   *remarks.Costs `json:"costs,omitempty"`
	Profile *Profile       `json:"profile"`
}

// AppendLedger appends one envelope-wrapped record line to the ledger at
// path, creating the file if needed. One envelope per line: readers split
// on newlines, so a torn final line (crash mid-append) loses at most that
// record.
func AppendLedger(path string, rec *LedgerRecord) error {
	if rec.Profile == nil {
		return fmt.Errorf("profile: ledger record has no profile")
	}
	if err := rec.Profile.normalize(); err != nil {
		return err
	}
	line, err := envelope.WrapLine(envelope.ToolLedger, rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadLedger parses every record in an append-only ledger, checking each
// record's profile as Decode checks a profile file. Blank lines are
// skipped; a malformed line is an error naming its line number that wraps
// ErrEnvelope or ErrSchema.
func ReadLedger(r io.Reader) ([]*LedgerRecord, error) {
	var recs []*LedgerRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		env, err := envelope.Decode(line)
		if err != nil {
			return nil, fmt.Errorf("ledger line %d: %w: %w", lineNo, ErrEnvelope, err)
		}
		if env.Tool != envelope.ToolLedger {
			return nil, fmt.Errorf("ledger line %d: %w: envelope is from %q, want %q",
				lineNo, ErrEnvelope, env.Tool, envelope.ToolLedger)
		}
		var rec LedgerRecord
		if err := env.Into(&rec); err != nil {
			return nil, fmt.Errorf("ledger line %d: %w: %w", lineNo, ErrEnvelope, err)
		}
		if rec.Profile == nil {
			return nil, fmt.Errorf("ledger line %d: %w: record has no profile", lineNo, ErrEnvelope)
		}
		if err := rec.Profile.check(); err != nil {
			return nil, fmt.Errorf("ledger line %d: %w", lineNo, err)
		}
		recs = append(recs, &rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// ReadLedgerFile reads every record of the append-only run ledger at path.
// Failures wrap ErrEnvelope or ErrSchema and name the offending line.
func ReadLedgerFile(path string) ([]*LedgerRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ReadLedger(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
