package exec_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/suite"
)

// TestEntryDecisionsGolden pins what the loop entries of a team run decide,
// per suite kernel at its table size, for P ∈ {2, 3} under the optimized SPMD
// schedule and the fork-join baseline: the entries every worker ran in row
// form, the fallbacks to the per-access-checked body and the cursor range
// checks, summed over the workers. A change to how innermost loops are
// driven must leave every line as it is.
func TestEntryDecisionsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, k := range append(suite.Kernels(), suite.IrregularKernels()...) {
		c, err := core.Compile(k.Source, core.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", k.Name, err)
		}
		for _, l := range legs(c) {
			for _, workers := range []int{2, 3} {
				label := l.label
				r, err := l.newRunner(exec.Config{Workers: workers, Params: k.Params, FixedWidth: true})
				if err != nil {
					t.Fatalf("%s %s P=%d: %v", k.Name, label, workers, err)
				}
				rows, fallbacks, checks := exec.RecordRowEntries(r.Runner), exec.RecordFallbacks(r.Runner), exec.RecordChecks(r.Runner)
				if _, err := r.Run(); err != nil {
					t.Fatalf("%s %s P=%d: %v", k.Name, label, workers, err)
				}
				fmt.Fprintf(&out, "%s %s P=%d rows=%d fallbacks=%d checks=%d\n",
					k.Name, label, workers, rows(), fallbacks(), checks())
			}
		}
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
		t.Errorf("%s drifted (go test ./internal/exec -run %s -update)", path, t.Name())
	}
}
