package profile

import (
	"errors"
	"fmt"
)

// Typed ingestion errors. Every reader in this package (ReadFile,
// ReadLedgerFile, Decode, ReadLedger, MatchIdentity, Compatible) reports
// failures wrapping one of these sentinels, so callers branch with
// errors.Is instead of matching message text:
//
//   - ErrEnvelope: the bytes are not a well-formed profile/ledger envelope
//     (wrong tool name, malformed JSON, bad payload shape).
//   - ErrSchema: the envelope decodes but its profile schema is newer than
//     this build reads (or invalid).
//   - ErrHashMismatch: the profile's identity hashes (program hash,
//     schedule hash) do not match the compilation it was offered to — the
//     staleness signal the feedback-directed optimizer keys on.
//   - ErrIncompatible: identity hashes aside, the profile describes a
//     different configuration (mode, workers, backend) than required.
var (
	ErrEnvelope     = errors.New("profile: not a profile envelope")
	ErrSchema       = errors.New("profile: unsupported schema")
	ErrHashMismatch = errors.New("profile: identity hash mismatch")
	ErrIncompatible = errors.New("profile: incompatible configuration")
)

// MatchIdentity checks the profile against a compilation's identity
// hashes: the error wraps ErrHashMismatch and names the mismatching hash,
// so a stale profile (edited source, re-optimized schedule) is a typed,
// testable condition rather than a silent mis-merge.
func (p *Profile) MatchIdentity(programHash, scheduleHash string) error {
	if p.ProgramHash != programHash {
		return fmt.Errorf("%w: program hash %s, compilation has %s",
			ErrHashMismatch, p.ProgramHash, programHash)
	}
	if p.ScheduleHash != scheduleHash {
		return fmt.Errorf("%w: schedule hash %s, compilation has %s",
			ErrHashMismatch, p.ScheduleHash, scheduleHash)
	}
	return nil
}
