package compile

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compile/cursortest"
	"repro/internal/interp"
	"repro/internal/ir"
)

// interpRun is the reference for a sequential closure run: the interpreter
// over an identically seeded state.
func interpRun(t *testing.T, src string, params map[string]int64) *interp.State {
	t.Helper()
	st, err := interp.NewState(mustParse(src), params)
	if err != nil {
		t.Fatal(err)
	}
	st.SeedDeterministic()
	if err := interp.RunOn(st); err != nil {
		t.Fatalf("interpreter: %v", err)
	}
	return st
}

// TestRowLegalityTable runs the cursortest row table on the closure program
// and requires, per case, the form the table names (the row-entry counter
// says which ran) and the interpreter's arrays and scalars bit for bit. The
// instrumented lowering builds neither cursors nor rows and must agree too.
func TestRowLegalityTable(t *testing.T) {
	for _, tc := range cursortest.RowCases {
		t.Run(tc.Name, func(t *testing.T) {
			want := interpRun(t, tc.Src, tc.Params)
			st, fr, err := seqRun(t, tc.Src, tc.Params, Options{})
			if err != nil {
				t.Fatal(err)
			}
			requireBitwiseEqual(t, want, st)
			if got := fr.Rows > 0; got != tc.Row || fr.Fallbacks != 0 {
				t.Fatalf("row entries = %d, fallbacks = %d; the table says row=%v", fr.Rows, fr.Fallbacks, tc.Row)
			}
			pSt, pFr, err := seqRun(t, tc.Src, tc.Params, Options{Instrument: true})
			if err != nil {
				t.Fatal(err)
			}
			requireBitwiseEqual(t, want, pSt)
			if pFr.Rows != 0 {
				t.Fatalf("the instrumented lowering took %d row entries; it must build no row form", pFr.Rows)
			}
		})
	}
}

// TestRowSabotagedLegalityIsCaught answers "legal" for every entry and runs
// the table again: each case the rules refuse at run time must then come out
// different from the interpreter — the differential sees an unsound rule, and
// the table's refusals are all load-bearing. (Cases for which no row form is
// built are out of a sabotaged rule's reach and stay equal.)
func TestRowSabotagedLegalityIsCaught(t *testing.T) {
	defer func(f func(*rowBody, *Frame, []curRef, int64, int64, int64) bool) { rowLegal = f }(rowLegal)
	rowLegal = func(*rowBody, *Frame, []curRef, int64, int64, int64) bool { return true }
	caught := map[string]bool{}
	for _, tc := range cursortest.RowCases {
		if tc.Row {
			continue
		}
		want := interpRun(t, tc.Src, tc.Params)
		st, fr, err := seqRun(t, tc.Src, tc.Params, Options{})
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for _, d := range want.Prog.Arrays {
			for i, v := range want.Array(d.Name).Data {
				same = same && math.Float64bits(v) == math.Float64bits(st.Array(d.Name).Data[i])
			}
		}
		if (fr.Rows > 0) == same {
			t.Errorf("%s: %d row entries under the sabotaged rule, same as the interpreter: %v", tc.Name, fr.Rows, same)
		}
		caught[tc.Name] = !same
	}
	for _, name := range []string{"carried-dependence", "anti-dependence-across-statements",
		"distance-inside-trip-count", "reversal-in-place", "invariant-read-inside-the-stored-span",
		"read-modify-write-through-a-map-with-one-repeat"} {
		if !caught[name] {
			t.Errorf("%s: the sabotaged rule was not caught", name)
		}
	}
}

// TestPlanSabotagedBoxIsCaught makes the box of every block of rows leave out
// its last row (boxDrop), so that one check no longer covers all the rows it
// stands for, and runs the cursortest tables and the committed FuzzRowNest
// seeds again: the differential must see it — some program must then come
// out different from the interpreter, in its bits, in whether or where it
// faults, or in a Go panic. The nest whose corner leaves its array in the
// last row, and the two seeds that plant one there, must be among them.
func TestPlanSabotagedBoxIsCaught(t *testing.T) {
	defer func() { boxDrop = 0 }()
	boxDrop = 1
	differs := func(src string, params map[string]int64, rp []float64) (differ bool) {
		defer func() { differ = differ || recover() != nil }()
		prog := mustParse(src)
		run := func(seq func(*interp.State) error) (*interp.State, error) {
			st, err := interp.NewState(prog, params)
			if err != nil {
				t.Fatal(err)
			}
			if st.SeedDeterministic(); rp != nil {
				copy(st.Array("rp").Data, rp)
			}
			return st, seq(st)
		}
		want, iErr := run(interp.RunOn)
		got, cErr := run(func(st *interp.State) error { _, err := seqRunOn(t, st, Options{}); return err })
		if (iErr == nil) != (cErr == nil) || cErr != nil {
			return cErr == nil || !strings.HasPrefix(iErr.Error(), cErr.Error())
		}
		for _, d := range prog.Arrays {
			for i, v := range want.Array(d.Name).Data {
				differ = differ || math.Float64bits(v) != math.Float64bits(got.Array(d.Name).Data[i])
			}
		}
		return differ
	}
	var caught []string
	for _, tc := range cursortest.Cases {
		if differs(tc.Src, tc.Params, nil) {
			caught = append(caught, tc.Name)
		}
	}
	for _, tc := range cursortest.RowCases {
		if differs(tc.Src, tc.Params, nil) {
			caught = append(caught, tc.Name)
		}
	}
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzRowNest", "*"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzRowNest seeds: %v", err)
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if src, params, rp := nestCase([]byte(data)); differs(src, params, rp) {
			caught = append(caught, "seed "+filepath.Base(path))
		}
	}
	t.Logf("caught by: %v", caught)
	for _, name := range []string{"nest-corner-out-at-the-last-outer-iteration",
		"seed corner-high-after-row-entries", "seed corner-low-after-row-entries"} {
		if !slices.Contains(caught, name) {
			t.Errorf("%s: a box that leaves out a block's last row was not caught", name)
		}
	}
}

// TestRowEntryNeedsEveryEnter re-runs the hoisted-check table for the row
// counter: an entry whose range check fails runs the checked body, whatever
// its row form would have been allowed to do (first-iteration and
// negative-coefficient-out-at-first are row-legal loops).
func TestRowEntryNeedsEveryEnter(t *testing.T) {
	for _, tc := range cursortest.Cases {
		if !tc.Fallback {
			continue
		}
		_, fr, _ := seqRun(t, tc.Src, tc.Params, Options{})
		if fr.Fallbacks == 0 || fr.Rows != 0 {
			t.Errorf("%s: %d fallbacks, %d row entries; want the fallback and no row entry", tc.Name, fr.Fallbacks, fr.Rows)
		}
	}
}

// TestRowSlices drives one row-legal loop the way a partition does — block
// slices, cyclic ones with a step, a negative stride, slices of one
// iteration and of several chunks — and a slice whose last iteration is out
// of range, which must fall back without a row entry.
func TestRowSlices(t *testing.T) {
	const src = `
program slices
param N
real A(N), B(N), C(N)
do i = 1, N + 1
  A(i) = A(i) * 2.0 + B(N - i + 1)
  C(i) = A(i) - 0.5
end do
end
`
	const n = 1000
	prog := mustParse(src)
	p, err := Compile(prog, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Body[0].(*ir.Loop)
	for _, tc := range []struct{ start, end, step int64 }{
		{1, n, 1}, {1, n, 3}, {2, n, 3}, {3, n, 3}, {5, 5, 1}, {7, 900, 7},
		{400, 399, 1},     // empty: no entry at all
		{2, n + 1, 2},     // the last iteration run is N
		{1, n + 1, 1},     // A(N+1): the checked body runs, and faults
		{n - 3, n + 1, 2}, // iterations N-3, N-1, N+1: the same
	} {
		st, err := interp.NewState(prog, map[string]int64{"N": n})
		if err != nil {
			t.Fatal(err)
		}
		st.SeedDeterministic()
		a, b, c := st.Array("A").Data, st.Array("B").Data, st.Array("C").Data
		wantA, wantC := append([]float64(nil), a...), append([]float64(nil), c...)
		last := int64(0)
		for i := tc.start; i <= tc.end && i <= n; i += tc.step {
			wantA[i-1] = wantA[i-1]*2.0 + b[n-i]
			wantC[i-1] = wantA[i-1] - 0.5
			last = i
		}
		faults := tc.start <= tc.end && tc.start+(tc.end-tc.start)/tc.step*tc.step > n
		fr, err := p.seqFrame(st)
		if err != nil {
			t.Fatal(err)
		}
		p.Range(loop)(fr, tc.start, tc.end, tc.step)
		if (fr.Err() != nil) != faults {
			t.Fatalf("slice %d..%d step %d: error %v, want a fault: %v", tc.start, tc.end, tc.step, fr.Err(), faults)
		}
		wantRows := int64(0)
		if !faults && tc.start <= tc.end {
			wantRows = 1
		}
		if fr.Rows != wantRows || (fr.Fallbacks > 0) != faults {
			t.Fatalf("slice %d..%d step %d (last %d): %d row entries, %d fallbacks; want %d row entries", tc.start, tc.end, tc.step, last, fr.Rows, fr.Fallbacks, wantRows)
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(wantA[i]) || math.Float64bits(c[i]) != math.Float64bits(wantC[i]) {
				t.Fatalf("slice %d..%d step %d: element %d: A %v C %v, want %v %v", tc.start, tc.end, tc.step, i+1, a[i], c[i], wantA[i], wantC[i])
			}
		}
	}
}

// TestRowReductionIntoAPrivateCell folds a row reduction into a worker's
// private cell, as a partitioned reduction loop does, and into the shared
// slot, in the order and with the operand positions of the scalar form.
func TestRowReductionIntoAPrivateCell(t *testing.T) {
	const src = `
program red
param N
real A(N), B(N), s
do i = 1, N
  s = s + A(i) * B(i)
end do
end
`
	prog := mustParse(src)
	p, err := Compile(prog, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, private := range []bool{false, true} {
		st, err := interp.NewState(prog, map[string]int64{"N": 777})
		if err != nil {
			t.Fatal(err)
		}
		st.SeedDeterministic()
		fr, err := p.seqFrame(st)
		if err != nil {
			t.Fatal(err)
		}
		slot, _ := p.Layout().ScalarSlot("s")
		cell, want := 0.125, 0.125
		if private {
			fr.Priv[slot] = &cell
		} else {
			fr.Scal[slot].Store(math.Float64bits(cell))
		}
		a, b := st.Array("A").Data, st.Array("B").Data
		for i := 100; i < 700; i++ {
			want = want + a[i]*b[i]
		}
		p.Range(prog.Body[0].(*ir.Loop))(fr, 101, 700, 1)
		got := math.Float64frombits(fr.Scal[slot].Load())
		if private {
			got = cell
		}
		if fr.Rows != 1 || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("private=%v: %d row entries, sum %v, want %v", private, fr.Rows, got, want)
		}
	}
}

// TestRowTemporariesComeFromThePool checks the lifetime of the row
// temporaries: taken at a frame's first row entry, kept for its later ones,
// handed back by Release, and taken again by the next frame instead of a
// fresh allocation.
func TestRowTemporariesComeFromThePool(t *testing.T) {
	tc := cursortest.RowCases[1]
	prog := mustParse(tc.Src)
	p, err := Compile(prog, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := interp.NewState(prog, tc.Params)
	if err != nil {
		t.Fatal(err)
	}
	var first *float64
	for i := 0; i < 3; i++ {
		fr, err := p.seqFrame(st)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.runSeqOn(fr, st); err != nil || fr.Rows == 0 || len(fr.scr.row) != p.nrow*rowChunk {
			t.Fatalf("run: %v, %d row entries, %d temporaries", err, fr.Rows, len(fr.scr.row))
		}
		if first == nil {
			first = &fr.scr.row[0]
		}
		if &fr.scr.row[0] != first || len(p.rows) != 0 {
			t.Fatalf("run %d did not take the set the run before it released (%d free)", i, len(p.rows))
		}
		p.Release(fr)
		p.Release(fr)
		if fr.scr != nil || len(p.rows) != 1 {
			t.Fatalf("after Release the frame holds a scratch set (%v) and %d sets are free", fr.scr != nil, len(p.rows))
		}
	}
}

// TestMulCheckedMatchesTheDividingForm compares mulChecked, which reads the
// overflow off the 128-bit product, with the form it replaced, which divided
// the product back, over the values at which either could go wrong.
func TestMulCheckedMatchesTheDividingForm(t *testing.T) {
	dividing := func(a, b int64) (int64, bool) {
		if a == 0 || b == 0 {
			return 0, true
		}
		// MinInt64 * -1 wraps back to MinInt64, and MinInt64 / -1 does too.
		p := a * b
		return p, p/b == a && !(b == -1 && p == a)
	}
	var vals []int64
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 10, 1 << 31, 1<<31 - 1, 1 << 32, 1<<32 + 1, 3037000499, 3037000500,
		1 << 61, 1 << 62, 1<<62 + 1, math.MaxInt64 / 3, math.MaxInt64/3 + 1, math.MaxInt64 / 2, math.MaxInt64/2 + 1,
		math.MaxInt64 - 1, math.MaxInt64} {
		vals = append(vals, v, -v, -v-1)
	}
	for _, a := range vals {
		for _, b := range vals {
			p, fits := mulChecked(a, b)
			wantP, wantFits := dividing(a, b)
			if fits != wantFits || (fits && p != wantP) {
				t.Fatalf("mulChecked(%d, %d) = %d, %v; the dividing form says %d, %v", a, b, p, fits, wantP, wantFits)
			}
		}
	}
}

// TestNestEntries reads off a sequential run of the cursortest nests whether
// a nest's plan checked the cursors — it leaves their deltas in the frame's
// scratch, a one-row plan none — and how often rowBody.legal was asked:
// once per outer entry when no row can answer differently, once per row
// otherwise. A nest whose check fails runs its rows one at a time, which asks
// nothing where the table's fallback leaves no row form.
func TestNestEntries(t *testing.T) {
	defer func(f func(*rowBody, *Frame, []curRef, int64, int64, int64) bool) { rowLegal = f }(rowLegal)
	legal, calls := rowLegal, 0
	rowLegal = func(rb *rowBody, fr *Frame, refs []curRef, start, count, step int64) bool {
		calls++
		return legal(rb, fr, refs, start, count, step)
	}
	src := map[string]string{}
	params := map[string]map[string]int64{}
	for _, tc := range cursortest.RowCases {
		src[tc.Name], params[tc.Name] = tc.Src, tc.Params
	}
	for _, tc := range cursortest.Cases {
		src[tc.Name], params[tc.Name] = tc.Src, tc.Params
	}
	for _, tc := range []struct {
		name    string
		checked bool
		calls   int
	}{
		{"nest-row-above-decides-once", true, 1},
		{"nest-outer-slices-on-a-team", true, 1},
		{"outer-index-parameter-and-scalar-as-values", true, 1},
		{"nest-transpose-decides-per-row", true, 20},
		{"nest-flow-in-a-later-row", true, 19},
		{"nest-inner-bound-not-affine", true, 18},
		{"nest-inner-bound-uses-the-outer-index", true, 17},
		{"nest-empty-inner-range", false, 0},
		{"nest-corner-out-at-the-last-outer-iteration", true, 0},
		{"red-black-nest", false, 12},
		// CSR rows: legality per row of 8 nonzeros or more, plus one for the
		// row pointer's recurrence where it runs in a loop without the index
		// as a value; a bound that faults leaves the slice to its rows one at
		// a time before any check.
		{"csr-empty-rows", true, 9},
		{"csr-decreasing-row-pointer", true, 1 + 22},
		{"csr-two-prefix-statements", true, 1 + 23},
		{"csr-non-integer-row-pointer-at-row-6", false, 1},
		{"csr-row-pointer-read-past-its-array", false, 1},
		{"csr-gather-out-of-range-in-row-6", true, 1},
		{"last-iteration-second-dimension", true, 0},
	} {
		calls = 0
		_, fr, _ := seqRun(t, src[tc.name], params[tc.name], Options{})
		checked := fr.scr != nil && slices.ContainsFunc(fr.scr.delta, func(d int64) bool { return d != 0 })
		if checked != tc.checked || calls != tc.calls {
			t.Errorf("%s: checked by a nest's plan %v, %d legality decisions; want %v, %d", tc.name, checked, calls, tc.checked, tc.calls)
		}
	}
}

// TestNestSlices drives a nest's outer loop the way a partition does — block
// slices, cyclic ones with a step, one row — and slices whose last row is out
// of range: those run row by row on the inner loop's own plan, every row
// before the last in row form, and fault in the last.
func TestNestSlices(t *testing.T) {
	const src = `
program nslices
param N, M
real A(N, M), B(N, M)
do i = 1, N + 1
  do j = 1, M
    A(i, j) = A(i, j) * 2.0 + B(N - i + 1, M - j + 1)
  end do
end do
end
`
	const n, m = 40, 30
	prog := mustParse(src)
	p, err := Compile(prog, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Body[0].(*ir.Loop)
	for _, tc := range []struct{ start, end, step int64 }{
		{1, n, 1}, {1, n, 3}, {2, n, 3}, {3, n, 3}, {5, 5, 1}, {7, 37, 7},
		{20, 19, 1},       // empty: no entry at all
		{2, n + 1, 2},     // the last row run is N
		{1, n + 1, 1},     // row N+1 faults
		{n - 3, n + 1, 2}, // rows N-3, N-1, N+1: the same
	} {
		st, err := interp.NewState(prog, map[string]int64{"N": n, "M": m})
		if err != nil {
			t.Fatal(err)
		}
		st.SeedDeterministic()
		a, b := st.Array("A").Data, st.Array("B").Data
		want := append([]float64(nil), a...)
		rows := int64(0)
		for i := tc.start; i <= tc.end && i <= n; i += tc.step {
			for j := int64(1); j <= m; j++ {
				want[(i-1)*m+j-1] = want[(i-1)*m+j-1]*2.0 + b[(n-i)*m+m-j]
			}
			rows++
		}
		faults := tc.start <= tc.end && tc.start+(tc.end-tc.start)/tc.step*tc.step > n
		fr, err := p.seqFrame(st)
		if err != nil {
			t.Fatal(err)
		}
		p.Range(loop)(fr, tc.start, tc.end, tc.step)
		if (fr.Err() != nil) != faults || fr.Rows != rows || (fr.Fallbacks > 0) != faults {
			t.Fatalf("slice %d..%d step %d: error %v, %d row entries, %d fallbacks; want a fault: %v, %d row entries",
				tc.start, tc.end, tc.step, fr.Err(), fr.Rows, fr.Fallbacks, faults, rows)
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(want[i]) {
				t.Fatalf("slice %d..%d step %d: element %d: %v, want %v", tc.start, tc.end, tc.step, i, a[i], want[i])
			}
		}
	}
}

// TestRowOperatorShapes runs each operator of the row form, unary minus, a
// one- and a two-argument intrinsic in each operand shape — a scalar on the
// left, on the right, two vectors (a unary node: a vector) — against the
// interpreter bit for bit, over operands that pair ±0, ±Inf, huge and
// subnormal values (so that Inf - Inf, 0 * Inf, 0 / 0 and Inf / Inf make
// NaNs, no two of which meet): through unit and non-unit strides, into a
// store's own array, into a temporary, and with the node's destination the
// same slice as its left operand (E, G) or its right one (F). Every program
// must take row entries.
func TestRowOperatorShapes(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -2.5, 1e308, 5e-324, 3, -0.125}
	fill := func(st *interp.State) {
		a, b, m := st.Array("A").Data, st.Array("B").Data, len(specials)
		for i := range a {
			a[i], b[i] = specials[i%m], specials[i/m%m]
		}
		copy(st.Array("Z").Data, specials)
	}
	binary := func(op string) func(x, y string) string {
		return func(x, y string) string { return "(" + x + " " + op + " " + y + ")" }
	}
	for _, op := range []struct {
		name string
		node func(x, y string) string
	}{
		{"add", binary("+")}, {"sub", binary("-")}, {"mul", binary("*")}, {"div", binary("/")},
		{"min", func(x, y string) string { return "min(" + x + ", " + y + ")" }},
		{"neg", func(x, _ string) string { return "(-" + x + ")" }},
		{"sqrt", func(x, _ string) string { return "sqrt(" + x + ")" }},
	} {
		e := op.node
		src := "program opshape\nparam N\nreal A(2 * N + 1), B(2 * N + 1), Z(10), C(4, N), D(N), E(N), F(N), G(2 * N), H(N)\n" +
			"do i = 1, N\n" +
			"  C(1, i) = " + e("Z(1)", "B(i)") + "\n" + // scalar left, into a temporary
			"  C(2, i) = " + e("Z(3)", "B(2 * i + 1)") + "\n" + // scalar left, strided
			"  C(3, i) = " + e("A(i)", "Z(4)") + "\n" + // scalar right
			"  C(4, i) = " + e("A(2 * i)", "Z(2)") + "\n" + // scalar right, strided
			"  D(i) = " + e("A(i)", "B(i)") + "\n" + // two vectors, into D itself
			"  E(i) = " + e("(A(i) - B(i))", "B(i)") + "\n" + // the left operand is E's slice
			"  F(i) = " + e("Z(1)", "(A(i) * B(i))") + "\n" + // the right operand is F's slice
			"  G(2 * i) = " + e("(A(2 * i) + Z(5))", "A(i)") + "\n" + // a strided store
			"  H(i) = " + e("H(i)", "B(2 * i)") + "\n" + // in place, through a temporary
			"end do\nend\n"
		if fr := checkAgainstInterp(t, src, map[string]int64{"N": 150}, fill); fr.Rows == 0 {
			t.Fatalf("%s: no row entry\n%s", op.name, src)
		}
	}
}
