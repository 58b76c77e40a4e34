package exec_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/compile/cursortest"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/suite"
)

// TestHoistedCheckOnATeam runs the cursortest table through the executor —
// block and cyclic partitions, one worker and three — three ways: the
// closure engine, the closure engine under the sanitizer (the instrumented
// lowering has no cursors: it is the per-access-checked path) and the
// reference engine. A fault must be the same fault on all three, the two
// lowerings must leave the same arrays behind it, a clean run must agree
// with the reference bit for bit, and the fallback count must say that the
// cursor path ran exactly where the table says it can.
//
// The fault's text is not compared with the table's: which worker reports
// first depends on the partition (the table's is the sequential one). The
// CSR row loops also run on two and seven workers: the nest's plan takes a
// slice's rows a block at a time, so the faulting row lands at the start,
// the middle and the end of a slice. So do the time loops of the memo cases,
// whose gather loops reuse their first entry's checks.
func TestHoistedCheckOnATeam(t *testing.T) {
	for _, tc := range cursortest.Cases {
		teams := []int{1, 3}
		if strings.HasPrefix(tc.Name, "csr-") || strings.HasPrefix(tc.Name, "memo-") {
			teams = []int{1, 2, 3, 7}
		}
		for _, kind := range []decomp.Kind{decomp.Block, decomp.Cyclic} {
			for _, workers := range teams {
				t.Run(fmt.Sprintf("%s/%v/P%d", tc.Name, kind, workers), func(t *testing.T) {
					c, err := core.Compile(tc.Src, core.Options{Decomp: kind})
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					run := func(sanitize, ref bool) (*interp.State, string, int64) {
						r, err := c.NewRunner(exec.Config{Workers: workers, Params: tc.Params,
							Mode: exec.SPMD, Sanitize: sanitize,
							// A worker that stops synchronizing after its fault
							// must fail the test, not hang it.
							WatchdogTimeout: 20 * time.Second})
						if err != nil {
							t.Fatal(err)
						}
						if ref {
							exec.UseReferenceEngine(r.Runner)
						}
						fallbacks := exec.RecordFallbacks(r.Runner)
						st, err := interp.NewState(c.Prog, tc.Params)
						if err != nil {
							t.Fatal(err)
						}
						st.SeedDeterministic()
						text := ""
						if _, err := r.RunOn(st); err != nil {
							text = err.Error()
						}
						return st, text, fallbacks()
					}
					cSt, cErr, cFall := run(false, false)
					pSt, pErr, pFall := run(true, false)
					rSt, rErr, _ := run(false, true)
					if cErr != "" && tc.Fault == "" {
						t.Fatalf("closure engine: error %q, table says the program is clean", cErr)
					}
					// The converse does not hold on a team: an owner-computes
					// block placement clips its slices to the array's extent,
					// so the one iteration that would store past it (A(i+1) at
					// i = N) is owned by no worker and never runs.
					clipped := cErr == "" && tc.Fault != ""
					if pErr != cErr {
						t.Fatalf("per-access lowering: error %q, cursor lowering %q", pErr, cErr)
					}
					if (rErr != "") != (cErr != "") || !strings.HasPrefix(rErr, cErr) {
						t.Fatalf("reference engine: error %q, closure engine %q", rErr, cErr)
					}
					requireSameArrays(t, "cursor vs per-access lowering", cSt, pSt)
					if cErr == "" {
						requireSameArrays(t, "closure vs reference engine", cSt, rSt)
					}
					if pFall != 0 || (cFall > 0) != (tc.Fallback && !clipped) {
						t.Fatalf("fallback entries: %d (sanitized: %d), table says fallback=%v, clipped=%v",
							cFall, pFall, tc.Fallback, clipped)
					}
				})
			}
		}
	}
}

func requireSameArrays(t *testing.T, what string, a, b *interp.State) {
	t.Helper()
	for _, d := range a.Prog.Arrays {
		av, bv := a.Array(d.Name).Data, b.Array(d.Name).Data
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				t.Fatalf("%s: array %s[%d]: %v vs %v", what, d.Name, i, av[i], bv[i])
			}
		}
	}
}

// TestKernelsTakeNoFallback verifies the traffic instead of assuming it:
// every suite kernel, at its table size and on a team, enters every
// innermost loop through the hoisted check and never needs the fallback.
func TestKernelsTakeNoFallback(t *testing.T) {
	for _, k := range append(suite.Kernels(), suite.IrregularKernels()...) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.NewRunner(exec.Config{Workers: 3, Params: k.Params, Mode: exec.SPMD})
			if err != nil {
				t.Fatal(err)
			}
			fallbacks := exec.RecordFallbacks(r.Runner)
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if n := fallbacks(); n != 0 {
				t.Fatalf("%d loop entries fell back to the per-access-checked body", n)
			}
		})
	}
}
