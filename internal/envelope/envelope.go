// Package envelope defines the single versioned JSON envelope every
// machine-readable artifact the toolchain emits is wrapped in: certifier
// certificates (`barrierc -certify`), remarks (`barrierc -remarks -json`),
// run results (`spmdrun -json`), durable sync profiles and run-ledger
// records. Consumers dispatch on the `tool`
// field and check `schema_version` before touching the payload, so the
// emitters can evolve their payloads independently without breaking
// downstream scripts that only route or archive them.
//
//	{
//	  "schema_version": 1,
//	  "tool": "barrierc-certify",
//	  "payload": { ... tool-specific ... }
//	}
package envelope

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion is the envelope schema emitted by this build. Bump it
// only when the envelope structure itself changes (fields added to or
// removed from the wrapper); payload evolution is the tools' business.
const SchemaVersion = 1

// Tool names of the known emitters. Decode accepts unknown names (new
// tools may appear) but emitters in this repo must use these constants.
const (
	ToolCertify = "barrierc-certify"
	ToolRun     = "spmdrun"
	ToolRemarks = "barrierc-remarks"
	// ToolProfile wraps a durable sync profile (spmdrun -profile-out,
	// spmdprof merge); ToolLedger wraps one run-ledger record (the
	// line-oriented spmdrun -ledger format).
	ToolProfile = "spmd-profile"
	ToolLedger  = "spmdrun-ledger"
)

// Envelope is the wrapper around one tool artifact.
type Envelope struct {
	SchemaVersion int             `json:"schema_version"`
	Tool          string          `json:"tool"`
	Payload       json.RawMessage `json:"payload"`
}

// Wrap marshals payload inside a versioned envelope, indented, with a
// trailing newline (the emitters write it straight to a file or stdout).
func Wrap(tool string, payload any) ([]byte, error) {
	if tool == "" {
		return nil, fmt.Errorf("envelope: empty tool name")
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("envelope: marshal %s payload: %w", tool, err)
	}
	b, err := json.MarshalIndent(&Envelope{
		SchemaVersion: SchemaVersion,
		Tool:          tool,
		Payload:       raw,
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("envelope: marshal %s: %w", tool, err)
	}
	return append(b, '\n'), nil
}

// Write wraps payload and writes it to w.
func Write(w io.Writer, tool string, payload any) error {
	b, err := Wrap(tool, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WrapLine marshals payload inside a versioned envelope on a single line
// with a trailing newline — the record format of append-only ledgers,
// where one envelope per line keeps appends atomic-ish and lets readers
// recover record boundaries without a streaming JSON parser.
func WrapLine(tool string, payload any) ([]byte, error) {
	if tool == "" {
		return nil, fmt.Errorf("envelope: empty tool name")
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("envelope: marshal %s payload: %w", tool, err)
	}
	b, err := json.Marshal(&Envelope{
		SchemaVersion: SchemaVersion,
		Tool:          tool,
		Payload:       raw,
	})
	if err != nil {
		return nil, fmt.Errorf("envelope: marshal %s: %w", tool, err)
	}
	return append(b, '\n'), nil
}

// Decode parses and validates an envelope: the schema version must be a
// known one (1..SchemaVersion) and the tool name must be present. The
// payload stays raw; unpack it with Into.
func Decode(data []byte) (*Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("envelope: %w", err)
	}
	if e.SchemaVersion < 1 || e.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("envelope: unsupported schema_version %d (this build reads 1..%d)",
			e.SchemaVersion, SchemaVersion)
	}
	if e.Tool == "" {
		return nil, fmt.Errorf("envelope: missing tool name")
	}
	if len(e.Payload) == 0 {
		return nil, fmt.Errorf("envelope: missing payload")
	}
	return &e, nil
}

// Into unmarshals the raw payload into v.
func (e *Envelope) Into(v any) error {
	if err := json.Unmarshal(e.Payload, v); err != nil {
		return fmt.Errorf("envelope: %s payload: %w", e.Tool, err)
	}
	return nil
}
