package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/remarks"
	"repro/internal/suite"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRemarksGolden pins the exact `barrierc -kernel jacobi2d -remarks
// -json` output byte for byte: the remark schema is a published artifact
// (docs/REMARKS.md) and scripts/check.sh diffs it, so drift must be a
// deliberate choice. Regenerate with `go test ./cmd/barrierc -run
// RemarksGolden -update` and review the diff.
func TestRemarksGolden(t *testing.T) {
	k, err := suite.Get("jacobi2d")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := envelope.Wrap(envelope.ToolRemarks, c.Remarks())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "jacobi2d_remarks.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("remarks envelope drifted from %s (regenerate with -update and review):\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}

	// The envelope must round-trip: decode, unpack into a remarks.Set,
	// re-wrap, and land on the same bytes.
	env, err := envelope.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	if env.Tool != envelope.ToolRemarks {
		t.Fatalf("tool = %q, want %q", env.Tool, envelope.ToolRemarks)
	}
	var set remarks.Set
	if err := env.Into(&set); err != nil {
		t.Fatal(err)
	}
	rt, err := envelope.Wrap(envelope.ToolRemarks, &set)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rt, got) {
		t.Error("remarks envelope does not round-trip through Decode/Into/Wrap")
	}

	// Sanity anchors on the decoded set, independent of formatting.
	if set.Program != "jacobi2d" {
		t.Errorf("program = %q", set.Program)
	}
	if len(set.Remarks) != 3 {
		t.Fatalf("jacobi2d has %d remarks, want 3", len(set.Remarks))
	}
	for i, r := range set.Remarks {
		if r.Site != i+1 {
			t.Errorf("remark %d has site %d", i, r.Site)
		}
	}
	if !set.Remarks[0].Eliminated() {
		t.Error("site 1 (top boundary) should be eliminated")
	}
	for _, id := range []int{2, 3} {
		r := &set.Remarks[id-1]
		if r.Primitive != remarks.PrimNeighbor {
			t.Errorf("site %d primitive = %q, want neighbor", id, r.Primitive)
		}
		if len(r.Deps) == 0 {
			t.Errorf("site %d kept with no recorded dependences", id)
		}
		if r.FM.Systems == 0 {
			t.Errorf("site %d kept with no FM evidence", id)
		}
	}
}

// TestRemarksDeterministic compiles a solver-heavy kernel twice and
// requires identical envelope bytes: remark output feeds byte-exact CI
// diffs, so map-iteration or scheduling nondeterminism anywhere in the
// pipeline is a bug.
func TestRemarksDeterministic(t *testing.T) {
	for _, name := range []string{"jacobi2d", "mg2level", "tomcatvlike", "guardedpivot"} {
		k, err := suite.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var prev []byte
		for i := 0; i < 3; i++ {
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Costs vary run to run (wall clock); the remark set must not.
			b, err := envelope.Wrap(envelope.ToolRemarks, c.Remarks())
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && !bytes.Equal(prev, b) {
				t.Fatalf("%s: remark envelope differs between identical compiles", name)
			}
			prev = b
		}
	}
}
