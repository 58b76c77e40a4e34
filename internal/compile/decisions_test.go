package compile_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compile"
	"repro/internal/compile/cursortest"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/suite"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestEntryDecisionsGolden pins what the loop entries of a sequential run
// decide, per cursortest case and per suite kernel at its table size: the
// entries that ran in row form, the fallbacks to the per-access-checked body,
// the cursor range checks and the row-legality decisions. A change to how
// innermost loops are driven must leave every line as it is.
func TestEntryDecisionsGolden(t *testing.T) {
	legal, restore := compile.CountLegality()
	defer restore()
	var out bytes.Buffer
	decide := func(what string, prog *ir.Program, params map[string]int64) {
		p, err := compile.Compile(prog, nil, compile.Options{})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		st, err := interp.NewState(prog, params)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		st.SeedDeterministic()
		before := legal()
		fr, err := p.RunSeqFrame(st)
		if fr == nil {
			t.Fatalf("%s: %v", what, err)
		}
		fmt.Fprintf(&out, "%s rows=%d fallbacks=%d checks=%d legal=%d fault=%v\n",
			what, fr.Rows, fr.Fallbacks, fr.Checks, legal()-before, err != nil)
	}
	for _, tc := range cursortest.Cases {
		decide("case "+tc.Name, mustParse(tc.Src), tc.Params)
	}
	for _, tc := range cursortest.RowCases {
		decide("row-case "+tc.Name, mustParse(tc.Src), tc.Params)
	}
	for _, k := range append(suite.Kernels(), suite.IrregularKernels()...) {
		decide("kernel "+k.Name, mustParse(k.Source), k.Params)
	}
	path := filepath.Join("testdata", "entry_decisions.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("%s drifted (go test ./internal/compile -run %s -update)", path, t.Name())
	}
}

// mustParse parses src and panics on error: the sources are the tests' own
// constants or suite kernels.
func mustParse(src string) *ir.Program {
	prog, err := parser.Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}
