package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"repro/internal/suite"
)

// TestFlagsArePinned keeps benchtab at the paper's tables: a flag that
// comes back with a side table fails here.
func TestFlagsArePinned(t *testing.T) {
	fs, _ := newFlagSet(&bytes.Buffer{})
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if want := "ablate fig gantt p table"; strings.Join(got, " ") != want {
		t.Errorf("flags = %q, want %q", strings.Join(got, " "), want)
	}
}

func TestTable3PrintsBothSuites(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-table", "3", "-p", "2"}, &out, &errb); rc != 0 {
		t.Fatalf("exit %d: %s", rc, errb.String())
	}
	lines := strings.Split(out.String(), "\n")
	row := func(name string) bool {
		for _, l := range lines {
			if f := strings.Fields(l); len(f) == 6 && f[0] == name {
				return true
			}
		}
		return false
	}
	for _, k := range append(suite.Kernels(), suite.IrregularKernels()...) {
		if !row(k.Name) {
			t.Errorf("no Table 3 row for %s", k.Name)
		}
	}
	if n := len(suite.Kernels()) + len(suite.IrregularKernels()); n != 21 {
		t.Errorf("suites hold %d kernels, want 16 + 5", n)
	}
	if n := strings.Count(out.String(), "\nMEAN "); n != 2 {
		t.Errorf("%d MEAN lines, want one per suite:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "(paper reports 29% on its suite)") {
		t.Errorf("the affine MEAN line lost its note:\n%s", out.String())
	}
}

func TestFigure3Runs(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-fig", "3", "-p", "2"}, &out, &errb); rc != 0 {
		t.Fatalf("exit %d: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 3") || strings.Contains(out.String(), "Table") {
		t.Errorf("-fig 3 output:\n%s", out.String())
	}
}

// TestSideTablesAreGone: the tables `go run ./bench` replaced exit through
// the unknown-table error, which names what is left.
func TestSideTablesAreGone(t *testing.T) {
	for _, tbl := range []string{"W", "P", "R", "F", "H", "I", "S"} {
		var out, errb bytes.Buffer
		if rc := run([]string{"-table", tbl}, &out, &errb); rc != 1 {
			t.Errorf("-table %s: exit %d, want 1", tbl, rc)
		}
		if !strings.Contains(errb.String(), "want 1..4") || out.Len() != 0 {
			t.Errorf("-table %s: stderr %q, stdout %q", tbl, errb.String(), out.String())
		}
	}
}
