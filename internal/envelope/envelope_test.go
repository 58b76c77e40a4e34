package envelope

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// samplePayload stands in for a tool artifact; the field mix (string,
// number, nesting, array) pins the marshalling shape.
type samplePayload struct {
	Program string `json:"program"`
	Workers int    `json:"workers"`
	Stats   struct {
		Barriers int `json:"barriers"`
	} `json:"stats"`
	Notes []string `json:"notes,omitempty"`
}

func sample() samplePayload {
	p := samplePayload{Program: "jacobi2d", Workers: 8, Notes: []string{"deterministic"}}
	p.Stats.Barriers = 3
	return p
}

// TestGoldenSchema locks the on-disk envelope schema: any change to the
// wrapper (field names, ordering, indentation, version) shows up as a
// golden diff and forces a deliberate SchemaVersion decision. Refresh
// with: UPDATE_GOLDEN=1 go test ./internal/envelope -run Golden
var update = os.Getenv("UPDATE_GOLDEN") != ""

func TestGoldenSchema(t *testing.T) {
	got, err := Wrap(ToolRun, sample())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "envelope.golden.json")
	if update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("envelope schema drifted from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRoundTrip(t *testing.T) {
	for _, tool := range []string{ToolCertify, ToolRun, ToolLedger} {
		b, err := Wrap(tool, sample())
		if err != nil {
			t.Fatal(err)
		}
		e, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: %v", tool, err)
		}
		if e.SchemaVersion != SchemaVersion || e.Tool != tool {
			t.Fatalf("%s: decoded header %d/%q", tool, e.SchemaVersion, e.Tool)
		}
		var p samplePayload
		if err := e.Into(&p); err != nil {
			t.Fatal(err)
		}
		if p.Program != "jacobi2d" || p.Workers != 8 || p.Stats.Barriers != 3 {
			t.Fatalf("%s: payload did not round-trip: %+v", tool, p)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"not json", "nope", "envelope:"},
		{"future version", `{"schema_version": 99, "tool": "spmdrun", "payload": {}}`, "unsupported schema_version"},
		{"zero version", `{"tool": "spmdrun", "payload": {}}`, "unsupported schema_version"},
		{"missing tool", `{"schema_version": 1, "payload": {}}`, "missing tool"},
		{"missing payload", `{"schema_version": 1, "tool": "spmdrun"}`, "missing payload"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode([]byte(c.in))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("want error containing %q, got %v", c.wantErr, err)
			}
		})
	}
}

func TestWrapRejectsEmptyTool(t *testing.T) {
	if _, err := Wrap("", sample()); err == nil {
		t.Fatal("Wrap with empty tool name succeeded")
	}
}
