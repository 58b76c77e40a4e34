package exec_test

import (
	"fmt"
	"testing"

	"repro/internal/compile/cursortest"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/spmdrt"
	"repro/internal/suite"
)

// rowTeams is the product every row-form differential runs: both
// placements, and team sizes that make slices of one iteration, of a few,
// even and odd, and a cyclic step that is not a divisor of anything.
func rowTeams(f func(kind decomp.Kind, workers int)) {
	for _, kind := range []decomp.Kind{decomp.Block, decomp.Cyclic} {
		for _, workers := range []int{1, 2, 3, 4, 7} {
			f(kind, workers)
		}
	}
}

// rowDiff is one program under the row-form differential: on a team on the
// closure engine (at all its workers, Config.FixedWidth), whose innermost
// loops take the row form wherever an entry's cursors allow it, against the
// tree-walking reference engine, arrays and scalars bit for bit (reductions
// fold in rank order, which makes both deterministic). A program without a reduction computes the same bits
// however it is partitioned, so the reference engine — the slow side — runs
// it once; one with a reduction is re-run on the reference at every team.
type rowDiff struct {
	what, src string
	params    map[string]int64
	reduces   bool
	ref       *interp.State
	compiled  map[decomp.Kind]*core.Compiled
}

func (d *rowDiff) run(t *testing.T, kind decomp.Kind, workers int, ref bool) (*interp.State, int64) {
	t.Helper()
	c := d.compiled[kind]
	if c == nil {
		var err error
		if c, err = core.Compile(d.src, core.Options{Decomp: kind}); err != nil {
			t.Fatalf("%s: compile: %v", d.what, err)
		}
		if d.compiled == nil {
			d.compiled = map[decomp.Kind]*core.Compiled{}
		}
		d.compiled[kind] = c
	}
	r, err := c.NewRunner(exec.Config{Workers: workers, Params: d.params, FixedWidth: true})
	if err != nil {
		t.Fatalf("%s: runner: %v", d.what, err)
	}
	if ref {
		exec.UseReferenceEngine(r.Runner)
	}
	entries := exec.RecordRowEntries(r.Runner)
	res, err := r.Run()
	if err != nil {
		t.Fatalf("%s %v P=%d ref=%v: run: %v\n%s", d.what, kind, workers, ref, err, d.src)
	}
	return res.State, entries()
}

// check compares one team's closure run with the reference and returns its
// row entries.
func (d *rowDiff) check(t *testing.T, kind decomp.Kind, workers int) int64 {
	t.Helper()
	if d.ref == nil || d.reduces {
		d.ref, _ = d.run(t, kind, workers, true)
	}
	st, rows := d.run(t, kind, workers, false)
	requireBitwiseEqual(t, fmt.Sprintf("%s %v P=%d", d.what, kind, workers), d.ref, st)
	return rows
}

// TestRowFormOnATeam is the bitwise differential behind the row form: every
// suite kernel, affine and irregular, at its suite size, under block and
// cyclic placement on 1, 2, 3, 4 and 7 workers, closure engine against
// reference engine.
func TestRowFormOnATeam(t *testing.T) {
	for _, k := range append(suite.Kernels(), suite.IrregularKernels()...) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			d := rowDiff{what: k.Name, src: k.Source, params: k.Params, reduces: k.Tol != 0}
			rowTeams(func(kind decomp.Kind, workers int) { d.check(t, kind, workers) })
		})
	}
}

// TestRowFormOnFuzzedPrograms runs the same differential over what the two
// program generators of the pipeline fuzzers produce.
func TestRowFormOnFuzzedPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz loop skipped in -short mode")
	}
	var g progGen
	var ig irregGen
	for seed := int64(1); seed <= 40; seed++ {
		g.hasRed = false
		src, tol := g.generate(seed)
		params := map[string]int64{"N": int64(16 + g.rng.Intn(40)), "T": int64(1 + g.rng.Intn(3))}
		affine := rowDiff{what: fmt.Sprintf("fuzz seed %d", seed), src: src, params: params, reduces: tol != 0}
		isrc, _, iparams := ig.generate(seed)
		irregular := rowDiff{what: fmt.Sprintf("irregular fuzz seed %d", seed), src: isrc, params: iparams}
		rowTeams(func(kind decomp.Kind, workers int) {
			affine.check(t, kind, workers)
			irregular.check(t, kind, workers)
		})
	}
}

// TestRowLegalityTableOnATeam runs the cursortest row table through the
// executor: whatever slices a placement cuts — a refused entry may become a
// legal one when a slice is a single iteration — the result is the reference
// engine's, and a case whose loop takes the row form sequentially takes it on
// a team too. A one-worker runner that chooses its width runs no team: the
// same bits, and no synchronization counted.
func TestRowLegalityTableOnATeam(t *testing.T) {
	for _, tc := range cursortest.RowCases {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			d := rowDiff{what: tc.Name, src: tc.Src, params: tc.Params, reduces: true}
			rowTeams(func(kind decomp.Kind, workers int) {
				if rows := d.check(t, kind, workers); tc.Row && rows == 0 {
					t.Fatalf("%v P=%d: no row entry on a team", kind, workers)
				}
				if workers != 1 {
					return
				}
				r, err := d.compiled[kind].NewRunner(exec.Config{Workers: 1, Params: d.params})
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					t.Fatalf("%v width-1 run: %v", kind, err)
				}
				requireBitwiseEqual(t, fmt.Sprintf("%s %v width-1 run", d.what, kind), d.ref, res.State)
				if exec.TakesTeam(r.Runner) || res.Stats.String() != (spmdrt.StatsSnapshot{}).String() {
					t.Errorf("%v width-1 run: team %v, counts %s; want no team and no synchronization",
						kind, exec.TakesTeam(r.Runner), res.Stats)
				}
			})
		})
	}
}
