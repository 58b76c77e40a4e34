package compile

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/parser"
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

// checkRowGather runs one decoded program on the closure program, on the
// per-access lowering and on the interpreter, each from the same state. The
// two lowerings must fail with one text, the interpreter's (which appends the
// legal range to a bounds fault), and leave the same arrays; without a fault
// the closure program's state must be the interpreter's bit for bit. It
// returns the closure program's row entries.
func checkRowGather(t *testing.T, data []byte) int64 {
	src, n, idx := gatherCase(data)
	prog := parser.MustParse(src)
	fresh := func() *interp.State {
		st, err := interp.NewState(prog, map[string]int64{"N": n})
		if err != nil {
			t.Fatal(err)
		}
		st.SeedDeterministic()
		for name, v := range idx {
			copy(st.Array(name).Data, v)
		}
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
		t.Fatalf("closure program %q, per-access lowering %q, interpreter %q\nN = %d\n%s", text(cErr), text(pErr), iErr, n, src)
	}
	requireSameArrays(t, "closure vs per-access", cSt, pSt)
	if cErr == nil {
		requireBitwiseEqual(t, want, cSt)
	}
	return fr.Rows
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
