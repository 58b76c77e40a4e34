package compile

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/compile/cursortest"
	"repro/internal/interp"
	"repro/internal/ir"
)

// differsFromInterp runs src on the closure program and on the interpreter
// and reports whether they disagree: in whether or where they fault, or, if
// neither does, in a bit of an array.
func differsFromInterp(t *testing.T, src string, params map[string]int64) bool {
	t.Helper()
	want, err := interp.NewState(mustParse(src), params)
	if err != nil {
		t.Fatal(err)
	}
	want.SeedDeterministic()
	iErr := interp.RunOn(want)
	st, _, cErr := seqRun(t, src, params, Options{})
	if (iErr == nil) != (cErr == nil) {
		return true
	}
	if cErr != nil {
		return !strings.HasPrefix(iErr.Error(), cErr.Error())
	}
	for _, d := range want.Prog.Arrays {
		for i, v := range want.Array(d.Name).Data {
			if math.Float64bits(v) != math.Float64bits(st.Array(d.Name).Data[i]) {
				return true
			}
		}
	}
	return false
}

// TestMemoSabotagedScopeIsCaught lets a memo's scope rule overlook every
// store to an index array, so that a loop's verdict outlives the store that
// changes it, and runs the memo cases of both cursortest tables again: each
// case that stores its index array inside the time loop, or between two of
// its executions, must then come out different from the interpreter — the
// tables see a memo kept across a store. The cases whose index arrays are not
// stored after the time loop starts stay equal.
func TestMemoSabotagedScopeIsCaught(t *testing.T) {
	defer func(f func([]ir.Stmt) map[string]bool) { memoWrites = f }(memoWrites)
	memoWrites = func([]ir.Stmt) map[string]bool { return nil }
	caught := map[string]bool{}
	for _, tc := range cursortest.RowCases {
		caught[tc.Name] = strings.HasPrefix(tc.Name, "memo-") && differsFromInterp(t, tc.Src, tc.Params)
	}
	for _, tc := range cursortest.Cases {
		caught[tc.Name] = strings.HasPrefix(tc.Name, "memo-") && differsFromInterp(t, tc.Src, tc.Params)
	}
	for name, want := range map[string]bool{
		"memo-index-stored-by-a-parallel-step":                  true,
		"memo-index-stored-by-a-guarded-statement":              true,
		"memo-index-stored-in-a-nested-sequential-loop":         true,
		"memo-index-stored-between-executions-of-the-time-loop": true,
		"memo-index-goes-bad-inside-the-time-loop":              true,
		"memo-slice-bounds-vary-with-t":                         false,
		"memo-bad-index-at-the-first-entry":                     false,
	} {
		if got, known := caught[name]; !known || got != want {
			t.Errorf("%s: differs from the interpreter under the sabotaged rule: %v, want %v (in a table: %v)", name, got, want, known)
		}
	}
}

// memoCase decodes data into a time loop, possibly run twice by an outer
// loop r, around gatherCase's loop of gathers and scatters through P and Q
// (whose bounds may start at t), with up to one store to an index array in
// the time loop — a loop over P or Q, one element, or a nested loop that
// shifts the first t elements down — and up to one between two executions
// of the time loop. A stored element is a repeat, 0, one past the end, half
// an integer or 1. A time loop with no store may end with a loop that sums
// into s, so that it is no nest (a nest's plan, which checks per entry of its
// own). Bytes past the end of data read as 0: no store, one execution, one
// step, no nest.
func memoCase(data []byte) (src string, params map[string]int64, idx map[string][]float64) {
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	runs, steps, vary := 1+next()%2, 1+next()%3, next()%2 == 1
	name := func() string { return [...]string{"P", "Q"}[next()%2] }
	value := func() string { return [...]string{"P(1)", "0.0", "N + 1.0", "2.5", "1.0", "Q(N)"}[next()%6] }
	store := func(indent string) string {
		x := name()
		switch next() % 5 {
		case 1:
			return fmt.Sprintf("%sdo k = 1, N\n%s  %s(k) = max(%s(k) - 1.0, 1.0)\n%send do\n", indent, indent, x, x, indent)
		case 2:
			return fmt.Sprintf("%s%s(min(%d, N)) = %s\n", indent, x, 1+next()%300, value())
		case 3:
			return fmt.Sprintf("%sdo k = 1, 2\n%s  do j = 1, t\n%s    %s(j) = %s(min(j + 1, N))\n%s  end do\n%send do\n",
				indent, indent, indent, x, x, indent, indent)
		}
		return ""
	}
	inside, between := store("    "), strings.ReplaceAll(store("  "), "do j = 1, t", "do j = 1, 2")
	if inside == "" && next()%2 == 0 {
		inside = "    do k = 1, N\n      s = s + 1.0\n    end do\n"
	}
	var n int64
	src, n, idx = gatherCase(data)
	header, loop, _ := strings.Cut(src, "do i = 1, N\n")
	if vary {
		loop = "do i = t, N\n" + loop
	} else {
		loop = "do i = 1, N\n" + loop
	}
	loop = strings.TrimSuffix(loop, "end\n")
	src = strings.Replace(header, "param N", "param N, T", 1) + "do r = 1, " + fmt.Sprint(runs) + "\n  do t = 1, T\n" +
		"    " + strings.ReplaceAll(strings.TrimSuffix(loop, "\n"), "\n", "\n    ") + "\n" + inside + "  end do\n" + between + "end do\nend\n"
	return src, map[string]int64{"N": n, "T": steps}, idx
}

// checkStepMemo runs one decoded program through checkAgainstInterp and
// returns the closure program's frame.
func checkStepMemo(t *testing.T, data []byte) *Frame {
	src, params, idx := memoCase(data)
	return checkAgainstInterp(t, src, params, func(st *interp.State) {
		for name, v := range idx {
			copy(st.Array(name).Data, v)
		}
	})
}

// FuzzStepMemo drives checkStepMemo; its seeds are committed under
// testdata/fuzz/FuzzStepMemo:
//
//	go test -run '^$' -fuzz FuzzStepMemo -fuzztime 30s ./internal/compile
func FuzzStepMemo(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkStepMemo(t, data) })
}

// TestStepMemoMatchesInterp runs checkStepMemo over random inputs and requires
// some of them to reuse a memo: to make fewer cursor checks than the same
// program with no memo, which a scope rule that sees the index arrays P and Q
// stored in every loop gives it.
func TestStepMemoMatchesInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reused := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 8+rng.Intn(60))
		rng.Read(data)
		fr := checkStepMemo(t, data)
		writes := memoWrites
		memoWrites = func([]ir.Stmt) map[string]bool { return map[string]bool{"P": true, "Q": true} }
		bare := checkStepMemo(t, data)
		memoWrites = writes
		if fr.Rows != bare.Rows || fr.Fallbacks != bare.Fallbacks || fr.Checks > bare.Checks {
			t.Fatalf("with memos: %d row entries, %d fallbacks, %d checks; without: %d, %d, %d\n%x",
				fr.Rows, fr.Fallbacks, fr.Checks, bare.Rows, bare.Fallbacks, bare.Checks, data)
		}
		if fr.Checks < bare.Checks {
			reused++
		}
	}
	if reused == 0 || reused == trials {
		t.Fatalf("%d of %d programs reused a memo; the generator must reach both", reused, trials)
	}
}
