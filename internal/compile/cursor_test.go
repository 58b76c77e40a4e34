package compile

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compile/cursortest"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/sanitize"
)

// seqRun lowers src with opt and runs it sequentially over a freshly seeded
// state, returning the state as the run left it, the frame and the error.
func seqRun(t *testing.T, src string, params map[string]int64, opt Options) (*interp.State, *Frame, error) {
	t.Helper()
	st, err := interp.NewState(parser.MustParse(src), params)
	if err != nil {
		t.Fatal(err)
	}
	st.SeedDeterministic()
	fr, err := seqRunOn(t, st, opt)
	return st, fr, err
}

// seqRunOn lowers st's program with opt and runs it sequentially over st.
// An instrumented lowering gets a one-worker tracker: with no second worker
// it can flag nothing, it only makes the hooks callable.
func seqRunOn(t *testing.T, st *interp.State, opt Options) (*Frame, error) {
	t.Helper()
	p, err := Compile(st.Prog, nil, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	fr, err := p.seqFrame(st)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Instrument {
		fr.San = sanitize.New(1)
		for _, a := range st.Prog.Arrays {
			fr.San.Register(a.Name, int64(len(st.Array(a.Name).Data)))
		}
		for _, s := range st.Prog.Scalars {
			fr.San.Register(s, 1)
		}
	}
	return fr, p.runSeqOn(fr, st)
}

func requireSameArrays(t *testing.T, what string, a, b *interp.State) {
	t.Helper()
	for _, decl := range a.Prog.Arrays {
		av, bv := a.Array(decl.Name).Data, b.Array(decl.Name).Data
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				t.Fatalf("%s: array %s[%d]: %v vs %v", what, decl.Name, i, av[i], bv[i])
			}
		}
	}
}

// TestHoistedCheckKeepsEveryFault runs the cursortest table three ways: the
// closure program (cursors behind the hoisted check), the instrumented
// lowering (no cursors: the per-access-checked path, which is also what a
// failed entry runs) and the interpreter. Error text must agree across all
// three, the arrays as the fault left them across the two lowerings, and the fallback count must say which path
// ran: a faulting or dead-branch reference must take the fallback, an
// in-range program must not.
func TestHoistedCheckKeepsEveryFault(t *testing.T) {
	for _, tc := range cursortest.Cases {
		t.Run(tc.Name, func(t *testing.T) {
			cSt, cFr, cErr := seqRun(t, tc.Src, tc.Params, Options{})
			pSt, pFr, pErr := seqRun(t, tc.Src, tc.Params, Options{Instrument: true})
			iSt, err := interp.NewState(parser.MustParse(tc.Src), tc.Params)
			if err != nil {
				t.Fatal(err)
			}
			iSt.SeedDeterministic()
			iErr := interp.RunOn(iSt)

			text := func(err error) string {
				if err == nil {
					return ""
				}
				return err.Error()
			}
			if text(cErr) != tc.Fault {
				t.Fatalf("closure program: error %q, want %q", text(cErr), tc.Fault)
			}
			if text(pErr) != tc.Fault {
				t.Fatalf("per-access lowering: error %q, want %q", text(pErr), tc.Fault)
			}
			if (iErr == nil) != (tc.Fault == "") || !strings.HasPrefix(text(iErr), tc.Fault) {
				t.Fatalf("interpreter: error %q, want %q plus the legal range", text(iErr), tc.Fault)
			}
			requireSameArrays(t, "closure vs per-access", cSt, pSt)
			if tc.Fault == "" {
				// After a fault the lowered forms differ from the
				// interpreter by design: a faulting load yields 0 and the
				// statement's store still lands (offsetFn).
				requireSameArrays(t, "closure vs interpreter", cSt, iSt)
			}
			if got := cFr.Fallbacks > 0; got != tc.Fallback {
				t.Fatalf("fallback entries = %d, want fallback=%v", cFr.Fallbacks, tc.Fallback)
			}
			if pFr.Fallbacks != 0 {
				t.Fatalf("instrumented lowering counted %d fallbacks; it must have no cursors", pFr.Fallbacks)
			}
		})
	}
}

// TestRangeChecksTheLastIterationRun drives one loop the way a cyclic
// partition does: with a step, the last iteration that runs is
// start + (end-start)/step*step, and only that one has to be in range.
func TestRangeChecksTheLastIterationRun(t *testing.T) {
	const src = `
program cyc
param N
real A(N)
do i = 1, N + 2
  A(i) = 7.0
end do
end
`
	prog := parser.MustParse(src)
	p, err := Compile(prog, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Body[0].(*ir.Loop)
	for _, tc := range []struct {
		start, end, step int64
		fault            string
		written          []int
	}{
		{1, 12, 4, "", []int{1, 5, 9}},  // end is out of range, iteration 9 is the last
		{2, 12, 4, "", []int{2, 6, 10}}, // the last iteration is the last element
		{3, 12, 4, "6:3: array A: subscript 1 = 11 out of bounds", []int{3, 7}},
		{9, 8, 4, "", nil}, // empty slice
	} {
		st, err := interp.NewState(prog, map[string]int64{"N": 10})
		if err != nil {
			t.Fatal(err)
		}
		fr, err := p.seqFrame(st)
		if err != nil {
			t.Fatal(err)
		}
		p.Range(loop)(fr, tc.start, tc.end, tc.step)
		got := ""
		if err := fr.Err(); err != nil {
			got = err.Error()
		}
		if got != tc.fault {
			t.Errorf("slice %d..%d step %d: error %q, want %q", tc.start, tc.end, tc.step, got, tc.fault)
		}
		if (fr.Fallbacks > 0) != (tc.fault != "") {
			t.Errorf("slice %d..%d step %d: %d fallback entries", tc.start, tc.end, tc.step, fr.Fallbacks)
		}
		want := make([]float64, 10)
		for _, i := range tc.written {
			want[i-1] = 7
		}
		for i, v := range st.Array("A").Data {
			if v != want[i] {
				t.Errorf("slice %d..%d step %d: A(%d) = %v, want %v", tc.start, tc.end, tc.step, i+1, v, want[i])
			}
		}
	}
}

// TestGatherKeepsEveryFault plants one bad element in the index array of
// A(IDX(i)) — zero, past the end, negative, not an integer — at the first, a
// middle and the last iteration, once with the gather as a read and once as
// a store, and runs each program on the closure program (the gather closure
// behind IDX's hoisted check), on the instrumented lowering (the per-access
// path) and on the interpreter. The check on A cannot be hoisted, so no
// entry may fall back; the fault, its position and value, and the arrays it
// leaves behind must be the per-access path's. The last case makes IDX
// itself leave its array: that is a cursor's fault and the whole entry runs
// checked.
func TestGatherKeepsEveryFault(t *testing.T) {
	const n = 9
	type gcase struct {
		name, src, fault string
		fallback         bool
	}
	var cases []gcase
	for _, use := range []struct{ name, stmt, pos string }{
		{"read", "B(i) = A(IDX(i)) + i", "10:10"},
		{"store", "A(IDX(i)) = B(i) + i", "10:3"},
	} {
		// IDX sits at column 12 of the read, 5 of the store.
		idxPos := map[string]string{"read": "10:12", "store": "10:5"}[use.name]
		for _, at := range []struct {
			name string
			k    int
		}{{"first", 1}, {"middle", 5}, {"last", n}} {
			for _, bad := range []struct{ name, val, fault string }{
				{"zero", "0.0", use.pos + ": array A: subscript 1 = 0 out of bounds"},
				{"past-the-end", "N + 1.0", use.pos + ": array A: subscript 1 = 10 out of bounds"},
				{"negative", "0.0 - 3.0", use.pos + ": array A: subscript 1 = -3 out of bounds"},
				{"non-integral", "1.5", idxPos + ": array IDX element = 1.5 is not an integer subscript value"},
			} {
				cases = append(cases, gcase{
					name: use.name + "/" + at.name + "/" + bad.name,
					src: "program g\nparam N\nreal A(N), B(N), IDX(N)\ndo i = 1, N\n  IDX(i) = N - i + 1\n  B(i) = 0.25 * i\nend do\n" +
						"IDX(" + strconv.Itoa(at.k) + ") = " + bad.val + "\ndo i = 1, N\n  " + use.stmt + "\nend do\nend\n",
					fault: bad.fault,
				})
			}
		}
	}
	cases = append(cases, gcase{
		name: "index-array-fails-the-hoisted-check",
		src: "program g\nparam N\nreal A(N), B(N), IDX(N)\ndo i = 1, N\n  IDX(i) = i\nend do\n" +
			"do i = 1, N\n  B(i) = A(IDX(i + 1)) + i\nend do\nend\n",
		fault:    "8:12: array IDX: subscript 1 = 10 out of bounds",
		fallback: true,
	})
	params := map[string]int64{"N": n}
	text := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cSt, cFr, cErr := seqRun(t, tc.src, params, Options{})
			pSt, pFr, pErr := seqRun(t, tc.src, params, Options{Instrument: true})
			if text(cErr) != tc.fault {
				t.Fatalf("closure program: error %q, want %q\n%s", text(cErr), tc.fault, tc.src)
			}
			if text(pErr) != tc.fault {
				t.Fatalf("per-access lowering: error %q, want %q", text(pErr), tc.fault)
			}
			requireSameArrays(t, "gather closure vs per-access", cSt, pSt)
			if got := cFr.Fallbacks > 0; got != tc.fallback || pFr.Fallbacks != 0 {
				t.Fatalf("fallback entries: %d (instrumented %d), want fallback=%v", cFr.Fallbacks, pFr.Fallbacks, tc.fallback)
			}
			iSt, err := interp.NewState(parser.MustParse(tc.src), params)
			if err != nil {
				t.Fatal(err)
			}
			iSt.SeedDeterministic()
			// The interpreter appends the legal range to a bounds fault.
			if iErr := interp.RunOn(iSt); !strings.HasPrefix(text(iErr), tc.fault) {
				t.Fatalf("interpreter: error %q, want it to start %q", text(iErr), tc.fault)
			}
		})
	}
}
