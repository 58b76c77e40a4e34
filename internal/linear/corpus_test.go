package linear

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// corpusSystem is one entry of testdata/suite_systems.txt; the file's header
// documents the format and how it was captured.
type corpusSystem struct {
	kernel string
	flags  string // l, c, v: who solved it; e: the certifier also enumerated it
	sys    *System
}

// oracleOpts is what certify.feasible passes to Enumerate.
var oracleOpts = EnumOptions{SymbolicRange: [2]int64{1, 4}, Budget: 20000}

func loadCorpus(tb testing.TB) []corpusSystem {
	tb.Helper()
	f, err := os.Open("testdata/suite_systems.txt")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var (
		out    []corpusSystem
		kernel string
		prev   []Constraint
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		switch {
		case text == "" || text[0] == '#':
			continue
		case text[0] == '@':
			kernel, prev = strings.TrimSpace(text[1:]), nil
			continue
		}
		head, body, ok := strings.Cut(text, "|")
		hf := strings.Fields(head)
		if !ok || len(hf) != 2 {
			tb.Fatalf("suite_systems.txt:%d: want \"flags n | constraints\"", line)
		}
		shared, err := strconv.Atoi(hf[1])
		if err != nil || shared > len(prev) {
			tb.Fatalf("suite_systems.txt:%d: bad shared-prefix count %q", line, hf[1])
		}
		cons := append([]Constraint(nil), prev[:shared]...)
		for _, part := range strings.Split(body, ";") {
			if part = strings.TrimSpace(part); part != "" {
				cons = append(cons, parseConstraint(tb, line, part))
			}
		}
		prev = cons
		out = append(out, corpusSystem{kernel: kernel, flags: hf[0], sys: &System{Cons: cons}})
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return out
}

func parseConstraint(tb testing.TB, line int, text string) Constraint {
	tb.Helper()
	fs := strings.Fields(text)
	bad := func() { tb.Fatalf("suite_systems.txt:%d: bad constraint %q", line, text) }
	if len(fs) < 2 || (fs[0] != "ge" && fs[0] != "eq") {
		bad()
	}
	c := Constraint{Op: OpGE}
	if fs[0] == "eq" {
		c.Op = OpEQ
	}
	var err error
	if c.Expr.Const, err = strconv.ParseInt(fs[1], 10, 64); err != nil {
		bad()
	}
	for _, f := range fs[2:] {
		coeff, v, ok := strings.Cut(f, "*")
		k, err := strconv.ParseInt(coeff, 10, 64)
		if !ok || err != nil || len(v) < 3 || v[1] != ':' || !strings.Contains("spla", v[:1]) {
			bad()
		}
		c.Expr.setCoeff(V(v[2:], VarKind(strings.Index("spla", v[:1]))), k)
	}
	return c
}

func TestCorpusCoversTheSuite(t *testing.T) {
	kernels := map[string]bool{}
	enumerated := 0
	for _, cs := range loadCorpus(t) {
		kernels[cs.kernel] = true
		if strings.Contains(cs.flags, "e") {
			enumerated++
		}
	}
	if len(kernels) != 21 || enumerated == 0 {
		t.Fatalf("corpus has %d kernels, %d oracle systems; want 21 kernels and some oracle systems", len(kernels), enumerated)
	}
}
