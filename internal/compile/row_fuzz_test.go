package compile

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/sanitize"
)

// gatherCase decodes data into one innermost loop that gathers and scatters
// through the index arrays P and Q, and the contents P and Q start with: each
// a reversal, the identity or values read from data (repeats), then up to
// three planted elements — a non-integer, a zero, one past the end or a copy
// of another element. The statements are cursor stores, scatters,
// read-modify-write scatters, reductions and reversed stores over gathers,
// cursor reads and a gather through an index that does not move, so the
// bytes reach every static rule of the row form and its entry check. Bytes
// past the end of data read as 0.
func gatherCase(data []byte) (src string, n int64, idx map[string][]float64) {
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	n = 1 + (next()<<8|next())%300
	operand := func() string {
		return [...]string{"A(P(i))", "B(Q(i))", "C(i)", "A(Q(N - i + 1))", "B(i) * 0.25", "C(P(2))", "0.5", "P(i)"}[next()%8]
	}
	expr := func() string { return operand() + [...]string{" + ", " - ", " * ", " / "}[next()%4] + operand() }
	array := func() string { return [...]string{"A", "B", "C", "P"}[next()%4] }
	index := func() string { return [...]string{"P(i)", "Q(i)", "P(N - i + 1)"}[next()%3] }
	var body strings.Builder
	for k := 1 + next()%3; k > 0; k-- {
		switch next() % 5 {
		case 0:
			fmt.Fprintf(&body, "  %s(i) = %s\n", array(), expr())
		case 1:
			fmt.Fprintf(&body, "  %s(%s) = %s\n", array(), index(), expr())
		case 2:
			x, ix := array(), index()
			fmt.Fprintf(&body, "  %s(%s) = %s(%s) * 0.5 + %s\n", x, ix, x, ix, operand())
		case 3:
			fmt.Fprintf(&body, "  s = s + %s\n", expr())
		default:
			fmt.Fprintf(&body, "  %s(N - i + 1) = %s\n", array(), expr())
		}
	}
	src = "program fz\nparam N\nreal A(N), B(N), C(N), P(N), Q(N), s\ndo i = 1, N\n" + body.String() + "end do\nend\n"
	idx = map[string][]float64{}
	for _, name := range []string{"P", "Q"} {
		v, mode := make([]float64, n), next()%3
		for j := range v {
			switch mode {
			case 0:
				v[j] = float64(n - int64(j))
			case 1:
				v[j] = float64(j + 1)
			default:
				v[j] = float64(1 + next()%n)
			}
		}
		for k := next() % 4; k > 0; k-- {
			j := next() % n
			switch next() % 4 {
			case 0:
				v[j] += 0.5
			case 1:
				v[j] = 0
			case 2:
				v[j] = float64(n + 1)
			default:
				v[j] = v[next()%n]
			}
		}
		idx[name] = v
	}
	return src, n, idx
}

// checkRowGather runs one decoded program through checkAgainstInterp, P and Q
// holding what the bytes say, and returns the closure program's row entries.
func checkRowGather(t *testing.T, data []byte) int64 {
	src, n, idx := gatherCase(data)
	return checkAgainstInterp(t, src, map[string]int64{"N": n}, func(st *interp.State) {
		for name, v := range idx {
			copy(st.Array(name).Data, v)
		}
	}).Rows
}

// checkAgainstInterp runs src on the closure program, on the per-access
// lowering and on the interpreter, each from the same state: seeded, then
// fill. The two lowerings must fail with one text, the interpreter's (which
// appends the legal range to a bounds fault), and leave the same arrays;
// without a fault the closure program's state must be the interpreter's bit
// for bit. It returns the closure program's frame.
func checkAgainstInterp(t *testing.T, src string, params map[string]int64, fill func(*interp.State)) *Frame {
	prog := parser.MustParse(src)
	fresh := func() *interp.State {
		st, err := interp.NewState(prog, params)
		if err != nil {
			t.Fatal(err)
		}
		st.SeedDeterministic()
		fill(st)
		return st
	}
	text := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	want, cSt, pSt := fresh(), fresh(), fresh()
	iErr := text(interp.RunOn(want))
	fr, cErr := seqRunOn(t, cSt, Options{})
	_, pErr := seqRunOn(t, pSt, Options{Instrument: true})
	if text(cErr) != text(pErr) || (iErr == "") != (cErr == nil) || !strings.HasPrefix(iErr, text(cErr)) {
		t.Fatalf("closure program %q, per-access lowering %q, interpreter %q\nparams %v\n%s", text(cErr), text(pErr), iErr, params, src)
	}
	requireSameArrays(t, "closure vs per-access", cSt, pSt)
	if cErr == nil {
		requireBitwiseEqual(t, want, cSt)
	}
	return fr
}

// FuzzRowGather drives checkRowGather; its seeds are committed under
// testdata/fuzz/FuzzRowGather:
//
//	go test -run '^$' -fuzz FuzzRowGather -fuzztime 30s ./internal/compile
func FuzzRowGather(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkRowGather(t, data) })
}

// TestRowGatherMatchesInterp runs checkRowGather over random inputs, so that
// every test run reaches further than the committed seeds, and requires some
// of them to take the row form and some to be refused it.
func TestRowGatherMatchesInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 4+rng.Intn(60))
		rng.Read(data)
		if checkRowGather(t, data) > 0 {
			rows++
		}
	}
	if rows == 0 || rows == trials {
		t.Fatalf("%d of %d programs took row entries; the generator must reach both forms", rows, trials)
	}
}

// nestCase decodes data into one perfect nest of two loops, i over ilo..ihi
// and j over jlo..jhi (either may be empty), whose statements read and store
// A, B and C, each N by N, through subscripts affine in both indices with
// coefficients in -2..2. N is the widest span a subscript can have over the
// box plus slack, and each subscript's constant places its range inside
// 1..N — except the one the bytes may pick, which leaves it by one at its
// extreme corner (a unique corner when both coefficients are non-zero), low
// or high. The statements are stores of sums and products, in-place updates
// and a reduction, inside the row grammar, and stores that read j as a value
// or sit under an if, outside it. Bytes past the end of data read as 0.
func nestCase(data []byte) (src string, n int64) {
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	ilo, jlo := 1+next()%4, next()%6-2
	ihi, jhi := ilo-1+next()%12, jlo-1+next()%40
	di, dj := max(ihi-ilo, 0), max(jhi-jlo, 0)
	n = 2*di + 2*dj + 1 + next()%3
	plant, subs := next()%24, int64(0)
	sub := func() string {
		ki, kj := next()%5-2, next()%5-2
		lo := ki*ilo + kj*jlo
		if ki < 0 {
			lo = ki*ihi + kj*jlo
		}
		if kj < 0 {
			lo += kj * (jhi - jlo)
		}
		span := abs(ki)*di + abs(kj)*dj
		c := 1 - lo + next()%(n-span)
		switch subs++; {
		case subs == plant && plant%2 == 0:
			c = -lo // the extreme low corner reads 0
		case subs == plant:
			c = n + 1 - lo - span // the extreme high corner reads N + 1
		}
		return fmt.Sprintf("(%d) * i + (%d) * j + (%d)", ki, kj, c)
	}
	ref := func() string {
		return fmt.Sprintf("%s(%s, %s)", [...]string{"A", "B", "C"}[next()%3], sub(), sub())
	}
	operand := func() string {
		switch next() % 4 {
		case 0:
			return "0.5"
		case 1:
			return "i * 0.125"
		}
		return ref()
	}
	expr := func() string { return operand() + [...]string{" + ", " - ", " * ", " / "}[next()%4] + operand() }
	var body strings.Builder
	for k := 1 + next()%3; k > 0; k-- {
		switch next() % 5 {
		case 0, 1:
			fmt.Fprintf(&body, "    %s = %s\n", ref(), expr())
		case 2:
			x := ref()
			fmt.Fprintf(&body, "    %s = %s * 0.5 + %s\n", x, x, operand())
		case 3:
			fmt.Fprintf(&body, "    s = s + %s\n", expr())
		default:
			if next()%2 == 0 {
				fmt.Fprintf(&body, "    %s = %s + j\n", ref(), expr())
			} else {
				fmt.Fprintf(&body, "    if (%s > 0.5) then\n      %s = %s\n    end if\n", operand(), ref(), expr())
			}
		}
	}
	return fmt.Sprintf("program nz\nparam N\nreal A(N, N), B(N, N), C(N, N), s\ndo i = %d, %d\n  do j = %d, %d\n%s  end do\nend do\nend\n",
		ilo, ihi, jlo, jhi, body.String()), n
}

func abs(v int64) int64 { return max(v, -v) }

// checkRowNest runs one decoded nest through checkAgainstInterp, then drives
// its outer loop as a cyclic partition does, with steps 2 and 3 from each of
// the first two rows, on the closure program and on the per-access lowering:
// one error text, the same arrays. It returns the closure program's frame
// from the sequential run.
func checkRowNest(t *testing.T, data []byte) *Frame {
	src, n := nestCase(data)
	params := map[string]int64{"N": n}
	fr := checkAgainstInterp(t, src, params, func(*interp.State) {})
	prog := parser.MustParse(src)
	loop := prog.Body[0].(*ir.Loop)
	slice := func(opt Options, start, step int64) (*interp.State, string) {
		st, err := interp.NewState(prog, params)
		if err != nil {
			t.Fatal(err)
		}
		st.SeedDeterministic()
		p, err := Compile(prog, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := p.seqFrame(st)
		if err != nil {
			t.Fatal(err)
		}
		fr.San = sanitize.New(1)
		for _, a := range prog.Arrays {
			fr.San.Register(a.Name, int64(len(st.Array(a.Name).Data)))
		}
		fr.San.Register("s", 1)
		lo, hi := p.Bounds(loop)
		p.Range(loop)(fr, lo(fr)+start, hi(fr), step)
		if err := fr.Err(); err != nil {
			return st, err.Error()
		}
		return st, ""
	}
	for _, step := range []int64{2, 3} {
		for start := int64(0); start < 2; start++ {
			cSt, cErr := slice(Options{}, start, step)
			pSt, pErr := slice(Options{Instrument: true}, start, step)
			if cErr != pErr {
				t.Fatalf("rows from %d by %d: closure program %q, per-access lowering %q\n%s", start, step, cErr, pErr, src)
			}
			requireSameArrays(t, fmt.Sprintf("rows from %d by %d: closure vs per-access", start, step), cSt, pSt)
		}
	}
	return fr
}

// FuzzRowNest drives checkRowNest; its seeds are committed under
// testdata/fuzz/FuzzRowNest:
//
//	go test -run '^$' -fuzz FuzzRowNest -fuzztime 30s ./internal/compile
func FuzzRowNest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkRowNest(t, data) })
}

// TestRowNestMatchesInterp runs checkRowNest over random inputs and requires
// the generator to reach row entries, scalar ones, faults and fallbacks.
func TestRowNestMatchesInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var rows, scalar, fallbacks int
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 8+rng.Intn(60))
		rng.Read(data)
		fr := checkRowNest(t, data)
		if fr.Rows > 0 {
			rows++
		} else {
			scalar++
		}
		if fr.Fallbacks > 0 {
			fallbacks++
		}
	}
	if rows == 0 || scalar == 0 || fallbacks == 0 {
		t.Fatalf("of %d nests %d took row entries, %d none, %d fell back; the generator must reach each", trials, rows, scalar, fallbacks)
	}
}
