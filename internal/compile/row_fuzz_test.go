package compile

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
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
	prog := mustParse(src)
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
// or sit under an if, outside it. The bytes left may then ask for up to two
// assignments in the i loop before the j loop — stores of B and of s, or of
// the row pointer below, which takes the nest's plan away — and for a CSR
// shape: j over rp(i)..rp(i+1)-1, rp's elements rising by 0 to 3 inside
// jlo..jhi+1, one of them planted lower than the one before it, half an
// integer, or one past jhi, or the last of them missing from rp (a bound that
// faults). Bytes past the end of data read as 0, which asks for neither.
func nestCase(data []byte) (src string, params map[string]int64, rp []float64) {
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
	n := 2*di + 2*dj + 1 + next()%3
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
	params = map[string]int64{"N": n, "M": 1}
	var pre strings.Builder
	for k := next() % 3; k > 0; k-- {
		switch r := fmt.Sprintf("i - (%d)", ilo-1); next() % 3 {
		case 0:
			fmt.Fprintf(&pre, "  B(%s, %d) = B(%s, %d) * 0.5 + 0.25\n", r, 1+next()%n, r, 1+next()%n)
		case 1:
			fmt.Fprintf(&pre, "  s = s * 0.5 + A(%s, %d)\n", r, 1+next()%n)
		default:
			pre.WriteString("  rp(i + 1) = rp(i + 1) + 1.0\n")
		}
	}
	decl, inner := "", fmt.Sprintf("%d, %d", jlo, jhi)
	if next()%2 == 1 || strings.Contains(pre.String(), "rp") {
		decl, inner, params["M"] = ", rp(M)", "rp(i), rp(i + 1) - 1", max(ihi+1, 1)
		rp = make([]float64, params["M"])
		for r, v := 0, jlo; r < len(rp); r, v = r+1, v+next()%4 {
			rp[r] = float64(min(v, jhi+1))
		}
		r := next() % params["M"]
		switch next() % 5 {
		case 0:
			rp[r] = float64(jlo) // below the one before it, unless that is jlo too
		case 1:
			rp[r] += 0.5
		case 2:
			rp[r] = float64(jhi + 2)
		case 3:
			params["M"] = max(params["M"]-1, 1)
		}
	}
	return fmt.Sprintf("program nz\nparam N, M\nreal A(N, N), B(N, N), C(N, N), s%s\ndo i = %d, %d\n%s  do j = %s\n%s  end do\nend do\nend\n",
		decl, ilo, ihi, pre.String(), inner, body.String()), params, rp
}

func abs(v int64) int64 { return max(v, -v) }

// checkRowNest runs one decoded nest through checkAgainstInterp, then drives
// its outer loop as a cyclic partition does, with steps 2 and 3 from each of
// the first two rows, on the closure program and on the per-access lowering:
// one error text, the same arrays. It returns the closure program's frame
// from the sequential run.
func checkRowNest(t *testing.T, data []byte) *Frame {
	src, params, rp := nestCase(data)
	fill := func(st *interp.State) {
		if rp != nil {
			copy(st.Array("rp").Data, rp)
		}
	}
	fr := checkAgainstInterp(t, src, params, fill)
	prog := mustParse(src)
	loop := prog.Body[0].(*ir.Loop)
	for _, step := range []int64{2, 3} {
		for start := int64(0); start < 2; start++ {
			checkSlices(t, fmt.Sprintf("rows from %d by %d", start, step), prog, params, fill, func(p *Prog, fr *Frame) {
				lo, hi := p.Bounds(loop)
				p.Range(loop)(fr, lo(fr)+start, hi(fr), step)
			})
		}
	}
	return fr
}

// checkSlices runs drive on the closure program and on the per-access
// lowering of prog, each over a freshly seeded state, then fill (the
// per-access one with a one-worker tracker, which only makes its hooks
// callable): one error text, the same arrays.
func checkSlices(t *testing.T, what string, prog *ir.Program, params map[string]int64, fill func(*interp.State), drive func(*Prog, *Frame)) {
	slice := func(opt Options) (*interp.State, string) {
		st, err := interp.NewState(prog, params)
		if err != nil {
			t.Fatal(err)
		}
		st.SeedDeterministic()
		fill(st)
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
		for _, s := range prog.Scalars {
			fr.San.Register(s, 1)
		}
		drive(p, fr)
		if err := fr.Err(); err != nil {
			return st, err.Error()
		}
		return st, ""
	}
	cSt, cErr := slice(Options{})
	pSt, pErr := slice(Options{Instrument: true})
	if cErr != pErr {
		t.Fatalf("%s: closure program %q, per-access lowering %q\n%s", what, cErr, pErr, prog)
	}
	requireSameArrays(t, what+": closure vs per-access", cSt, pSt)
}

// FuzzRowNest drives checkRowNest; its seeds are committed under
// testdata/fuzz/FuzzRowNest:
//
//	go test -run '^$' -fuzz FuzzRowNest -fuzztime 30s ./internal/compile
func FuzzRowNest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkRowNest(t, data) })
}

// TestRowNestMatchesInterp runs checkRowNest over random inputs and requires
// the generator to reach row entries, scalar ones, faults, fallbacks and CSR
// rows.
func TestRowNestMatchesInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var rows, scalar, fallbacks, csr int
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 8+rng.Intn(60))
		rng.Read(data)
		if _, _, rp := nestCase(data); rp != nil {
			csr++
		}
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
	if rows == 0 || scalar == 0 || fallbacks == 0 || csr == 0 {
		t.Fatalf("of %d nests %d took row entries, %d none, %d fell back, %d had CSR rows; the generator must reach each",
			trials, rows, scalar, fallbacks, csr)
	}
}

// guardCase decodes data into a loop over i, alone or inside a loop over j,
// whose body is one if on a conjunction of one to three atoms: mostly index
// guard atoms (i OP e either way round, e affine in L, K, j and literals;
// mod(i, m) == c with |c| up to |m| + 1), some from outside that grammar
// (/=, .or., .not., a scalar, an array element, a float literal, mod by a
// parameter or by 0). i runs over L..L+K, L negative, crossing zero or within
// a few of +-2^53. The then statements store into A and B, N by N, and read
// them through subscripts i - L + s or L + K - i + s, s placing them in range
// or one past either end, in the row grammar or (i as a value) not. Bytes
// past the end of data read as 0.
func guardCase(data []byte) (src string, params map[string]int64, nest bool) {
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	k := next() % 24
	var l int64
	switch next() % 6 {
	case 0, 1:
		l = -k - 1 - next()%20
	case 2, 3:
		l = -(next() % (k + 1))
	case 4:
		l = 1<<53 - k/2 - 2 + next()%5
	default:
		l = -(1 << 53) - k/2 - 2 + next()%5
	}
	j, nest := "1", next()%2 == 0
	if nest {
		j = "j"
	}
	bound := func() string {
		d := next()%(k+5) - 2
		switch next() % 4 {
		case 0:
			return fmt.Sprintf("L + (%d)", d)
		case 1:
			return fmt.Sprintf("L + K - (%d)", d)
		case 2:
			if nest {
				return fmt.Sprintf("L + 2 * j + (%d)", d-3)
			}
		}
		return fmt.Sprintf("(%d)", d-k/2)
	}
	op := func() string { return [...]string{"==", "<", "<=", ">", ">="}[next()%5] }
	atom := func() string {
		switch next() % 8 {
		case 0, 1, 2:
			return "i " + op() + " " + bound()
		case 3:
			return bound() + " " + op() + " i"
		case 4, 5:
			m := next()%5 + 1
			c := next()%(2*m+3) - m - 1
			if next()%3 == 0 {
				m = -m
			}
			if next()%2 == 0 {
				return fmt.Sprintf("(%d) == mod(i, %d)", c, m)
			}
			return fmt.Sprintf("mod(i, %d) == %d", m, c)
		}
		return [...]string{"i /= " + bound(), "(i == " + bound() + ") .or. (mod(i, 2) == 0)", ".not. (i > " + bound() + ")",
			"s < 0.5", "B(1, 1) > 0.25", "i <= L + 2.5", "mod(i, K + 2) == 0", "mod(i, 0) == 0"}[next()%8]
	}
	cond := atom()
	for a := next() % 3; a > 0; a-- {
		cond = "(" + cond + ") .and. (" + atom() + ")"
	}
	// A statement stores into one array and reads mostly the other.
	stored := "B"
	ref := func(store bool) string {
		s := [...]int64{1, 2, 3, 1, 2, 3, 1, 2, 0, 4}[next()%10]
		sub := fmt.Sprintf("i - L + %d", s)
		if next()%3 == 0 {
			sub = fmt.Sprintf("L + K - i + %d", s)
		}
		name := [...]string{"A", "B"}[next()%2]
		if store {
			stored = name
		} else if next()%3 != 0 {
			name = map[string]string{"A": "B", "B": "A"}[stored]
		}
		return fmt.Sprintf("%s(%s, %s)", name, sub, j)
	}
	var body strings.Builder
	for n := 1 + next()%2; n > 0; n-- {
		switch next() % 4 {
		case 0:
			fmt.Fprintf(&body, "      %s = %s * 0.5 + %s\n", ref(true), ref(false), ref(false))
		case 1:
			fmt.Fprintf(&body, "      %s = %s - %s\n", ref(true), ref(false), j)
		case 2:
			fmt.Fprintf(&body, "      s = s + %s\n", ref(false))
		default:
			fmt.Fprintf(&body, "      %s = %s + i * 0.25\n", ref(true), ref(false))
		}
	}
	loop := fmt.Sprintf("  do i = L, L + K\n    if %s then\n%s    end if\n  end do\n", cond, body.String())
	if nest {
		loop = "do j = 1, J\n" + loop + "end do\n"
	}
	params = map[string]int64{"N": k + 3, "L": l, "K": k, "J": 1 + next()%3}
	return "program gz\nparam N, L, K, J\nreal A(N, N), B(N, N), s\n" + loop + "end\n", params, nest
}

// checkRowGuard runs one decoded loop through checkAgainstInterp, then drives
// the guarded loop as a partition does, by steps 1, 2 and 3 from each start
// a step allows (in a nest, for each j), on the closure program and on the
// per-access lowering: one error text, the same arrays. It returns the
// closure program's frame from the sequential run.
func checkRowGuard(t *testing.T, data []byte) *Frame {
	src, params, nest := guardCase(data)
	fr := checkAgainstInterp(t, src, params, func(*interp.State) {})
	prog := mustParse(src)
	loop := prog.Body[0].(*ir.Loop)
	if nest {
		loop = loop.Body[0].(*ir.Loop)
	}
	for step := int64(1); step <= 3; step++ {
		for start := int64(0); start < step; start++ {
			checkSlices(t, fmt.Sprintf("from %d by %d", start, step), prog, params, func(*interp.State) {}, func(p *Prog, fr *Frame) {
				reg, _ := p.Layout().IndexReg("j")
				for j := int64(1); j == 1 || nest && j <= params["J"]; j++ {
					if nest {
						fr.Regs[reg] = j
					}
					lo, hi := p.Bounds(loop)
					p.Range(loop)(fr, lo(fr)+start, hi(fr), step)
				}
			})
		}
	}
	return fr
}

// FuzzRowGuard drives checkRowGuard; its seeds are committed under
// testdata/fuzz/FuzzRowGuard:
//
//	go test -run '^$' -fuzz FuzzRowGuard -fuzztime 30s ./internal/compile
func FuzzRowGuard(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkRowGuard(t, data) })
}

// TestRowGuardMatchesInterp runs checkRowGuard over random inputs and requires
// the generator to reach row entries, entries with none, and fallbacks.
func TestRowGuardMatchesInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var rows, scalar, fallbacks int
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 8+rng.Intn(40))
		rng.Read(data)
		fr := checkRowGuard(t, data)
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
		t.Fatalf("of %d loops %d took row entries, %d none, %d fell back; the generator must reach each", trials, rows, scalar, fallbacks)
	}
}
