package linear

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Differential tests: the row-form Enumerate and Solve against the map-based
// implementations they replaced (ref_test.go), on random systems and on every
// system the suite kernels produce (testdata/suite_systems.txt). Equality is
// exact — same result, same point, same node at which the budget runs out,
// same elimination counts — because verdicts, witnesses and remark evidence
// downstream are golden-tested byte for byte.

// enumRef runs the reference enumerator on opts, spelling SymbolicRange out
// as the per-variable Range entries callers used to build.
func enumRef(s *System, opts EnumOptions) (map[Var]int64, EnumResult) {
	if opts.SymbolicRange != [2]int64{} {
		ranges := map[Var][2]int64{}
		for _, v := range s.Vars() {
			if v.Kind == KindSymbolic {
				ranges[v] = opts.SymbolicRange
			}
		}
		for v, r := range opts.Range {
			ranges[v] = r
		}
		opts.Range = ranges
	}
	return enumerateRef(s, opts)
}

// solveRef is System.solve around solveBodyRef, minus the cost counters.
func solveRef(s *System, subst bool) (info SolveInfo) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(canceled); !ok {
				panic(r)
			}
			info.Result = Unknown
		}
	}()
	info.Result = solveBodyRef(s, subst, &info)
	return info
}

// byteReader hands out the bytes of a fuzz input, then zeros.
type byteReader struct{ data []byte }

func (r *byteReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// decodeEnumCase turns fuzz bytes into a small system over up to five
// variables of mixed kinds and a full set of enumeration options.
func decodeEnumCase(data []byte) (*System, EnumOptions) {
	r := &byteReader{data: data}
	vars := make([]Var, 1+r.next()%5)
	for i := range vars {
		vars[i] = V(name2("x", i), VarKind(r.next()%4))
	}
	s := NewSystem()
	for n := r.next() % 8; n > 0; n-- {
		op := OpGE
		if r.next()%4 == 0 {
			op = OpEQ
		}
		a := NewAffine(int64(r.next()%25 - 12))
		for _, v := range vars {
			if b := r.next(); b%3 != 0 { // a third of the coefficients stay zero
				a = a.Add(Term(v, int64(b%9-4)))
			}
		}
		s.Add(Constraint{Expr: a, Op: op})
	}
	opts := EnumOptions{Range: map[Var][2]int64{}}
	for _, v := range vars {
		if b := r.next(); b%3 == 0 {
			lo := int64(r.next()%9 - 4)
			opts.Range[v] = [2]int64{lo, lo + int64(b/3%7) - 1} // width 0 is an empty range
		}
	}
	if b := r.next(); b%2 == 1 {
		opts.SymbolicRange = [2]int64{1, 1 + int64(b/2%6)}
	}
	opts.FallbackLo, opts.FallbackHi = -int64(r.next()%6), int64(r.next()%10)
	opts.Budget = 1 + (r.next()<<8|r.next())%3000
	return s, opts
}

// sameEnum requires Enumerate and the reference to agree on one case.
func sameEnum(t *testing.T, s *System, opts EnumOptions) EnumResult {
	t.Helper()
	wantPt, want := enumRef(s, opts)
	gotPt, got := s.Enumerate(opts)
	if got != want || !reflect.DeepEqual(gotPt, wantPt) {
		t.Fatalf("Enumerate = %v %v, reference = %v %v\nsystem: %v\nopts: %+v", got, gotPt, want, wantPt, s, opts)
	}
	if got == EnumPoint && !s.Holds(gotPt) {
		t.Fatalf("Enumerate returned a non-solution %v for %v", gotPt, s)
	}
	return got
}

// checkEnumMatchesRef compares Enumerate with the reference on one case and
// at the exact budget where the reference stops running out.
func checkEnumMatchesRef(t *testing.T, s *System, opts EnumOptions) {
	t.Helper()
	if sameEnum(t, s, opts) == EnumBudget {
		return
	}
	// The search is deterministic, so budget exhaustion is monotone: find the
	// last budget at which the reference gives up and require the same edge.
	edge := sort.Search(opts.Budget, func(b int) bool {
		o := opts
		o.Budget = b + 1
		_, res := enumRef(s, o)
		return res != EnumBudget
	})
	for _, b := range []int{edge, edge + 1} {
		if b >= 1 {
			o := opts
			o.Budget = b
			sameEnum(t, s, o)
		}
	}
}

func TestEnumerateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 4000; trial++ {
		data := make([]byte, 16+rng.Intn(80))
		rng.Read(data)
		s, opts := decodeEnumCase(data)
		checkEnumMatchesRef(t, s, opts)
	}
}

func FuzzEnumerate(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, opts := decodeEnumCase(data)
		checkEnumMatchesRef(t, s, opts)
	})
}

func TestSolveMatchesReference(t *testing.T) {
	check := func(name string, s *System, subst bool) {
		t.Helper()
		var got SolveInfo
		s.solve(subst, &got)
		if want := solveRef(s, subst); got != want {
			t.Fatalf("%s (subst=%v): solve = %+v, reference = %+v\nsystem: %v", name, subst, got, want, s)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		s := randomSystem(rng, 2+rng.Intn(4), 2+rng.Intn(8))
		check("random", s, true)
		check("random", s, false)
	}
	for _, cs := range loadCorpus(t) {
		check(cs.kernel, cs.sys, true)
	}
}

func TestEnumerateMatchesReferenceOnSuite(t *testing.T) {
	for _, cs := range loadCorpus(t) {
		if strings.Contains(cs.flags, "e") {
			sameEnum(t, cs.sys, oracleOpts)
		}
	}
}
