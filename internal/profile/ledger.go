package profile

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	// Verdict is the check of the parallel result against the sequential
	// program ("PASS", "FAIL", or "" when no verification ran).
	Verdict string `json:"verdict,omitempty"`
	// WallNS is the execution leg's wall-clock time (exec.Result.Elapsed),
	// not the whole request that the run envelope's wall_ns times.
	WallNS int64 `json:"wall_ns"`
	// Checksum fingerprints the computed output arrays.
	Checksum string `json:"checksum,omitempty"`
}

// LedgerRecord is one append-only ledger line's payload: the run's
// profile, the compile's analysis bill, and the result metadata.
type LedgerRecord struct {
	// TimeUnixNS stamps when the run finished.
	TimeUnixNS int64 `json:"time_unix_ns"`
	// TraceID joins this row with the run envelope and the Chrome trace's
	// run_metadata (the id `spmdrun -json` reports; "" for pre-span
	// ledgers).
	TraceID string         `json:"trace_id,omitempty"`
	Result  RunMeta        `json:"result"`
	Costs   *remarks.Costs `json:"costs,omitempty"`
	Profile *Profile       `json:"profile"`
}

// AppendLedger appends one envelope-wrapped record line to the ledger at
// path, creating the file if needed. One envelope per line: a torn final
// line (crash mid-append) loses at most that record — ReadLedger drops it,
// and the next append first truncates the file back to its last newline
// so the new record starts on a line of its own. Appends are meant to come
// from one writer at a time: a concurrent append still in flight would
// look torn.
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
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := trimTornTail(f); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// trimTornTail truncates f back to its last newline, dropping the
// unterminated bytes a crash mid-append left behind.
func trimTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	end := st.Size()
	buf := make([]byte, 4096)
	for off := end; off > 0; {
		n := min(off, int64(len(buf)))
		off -= n
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			if keep := off + int64(i) + 1; keep < end {
				return f.Truncate(keep)
			}
			return nil
		}
	}
	return f.Truncate(0)
}

// ReadLedger parses every record in an append-only ledger, checking each
// record's profile as Decode checks a profile file. Blank lines are
// skipped, and so is an unterminated final line that is not complete JSON:
// the torn tail of a crash mid-append. Any other malformed line is an
// error naming its line number that wraps ErrEnvelope or ErrSchema.
func ReadLedger(r io.Reader) ([]*LedgerRecord, error) {
	var recs []*LedgerRecord
	br := bufio.NewReader(r)
	for lineNo := 1; ; lineNo++ {
		raw, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, err
		}
		if line := bytes.TrimRight(raw, "\r\n"); len(line) > 0 {
			rec, lerr := ledgerLine(line)
			switch {
			case lerr == nil:
				recs = append(recs, rec)
			case err == io.EOF && !json.Valid(line):
				// The torn tail of a crash mid-append: only that record
				// is lost.
			default:
				return nil, fmt.Errorf("ledger line %d: %w", lineNo, lerr)
			}
		}
		if err == io.EOF {
			return recs, nil
		}
	}
}

// ledgerLine decodes and checks one ledger line.
func ledgerLine(line []byte) (*LedgerRecord, error) {
	env, err := envelope.Decode(line)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEnvelope, err)
	}
	if env.Tool != envelope.ToolLedger {
		return nil, fmt.Errorf("%w: envelope is from %q, want %q", ErrEnvelope, env.Tool, envelope.ToolLedger)
	}
	rec := new(LedgerRecord)
	if err := env.Into(rec); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEnvelope, err)
	}
	if rec.Profile == nil {
		return nil, fmt.Errorf("%w: record has no profile", ErrEnvelope)
	}
	if err := rec.Profile.check(); err != nil {
		return nil, err
	}
	return rec, nil
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
