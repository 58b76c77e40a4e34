package parser

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
)

const jacobiSrc = `
program jacobi
param N, NITER
real A(N, N), B(N, N)
do k = 1, NITER
  parallel do i = 2, N - 1
    do j = 2, N - 1
      B(i, j) = 0.25 * (A(i - 1, j) + A(i + 1, j) + A(i, j - 1) + A(i, j + 1))
    end do
  end do
  parallel do i = 2, N - 1
    do j = 2, N - 1
      A(i, j) = B(i, j)
    end do
  end do
end do
end
`

func TestParseJacobi(t *testing.T) {
	prog, err := Parse(jacobiSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if prog.Name != "jacobi" {
		t.Errorf("Name = %q", prog.Name)
	}
	if len(prog.Params) != 2 || prog.Params[0] != "N" || prog.Params[1] != "NITER" {
		t.Errorf("Params = %v", prog.Params)
	}
	if len(prog.Arrays) != 2 || prog.Arrays[0].Rank() != 2 {
		t.Fatalf("Arrays = %v", prog.Arrays)
	}
	if len(prog.Body) != 1 {
		t.Fatalf("Body len = %d", len(prog.Body))
	}
	k := prog.Body[0].(*ir.Loop)
	if k.Index != "k" || k.Parallel {
		t.Errorf("outer loop: %+v", k)
	}
	if len(k.Body) != 2 {
		t.Fatalf("k body len = %d", len(k.Body))
	}
	i1 := k.Body[0].(*ir.Loop)
	if !i1.Parallel || i1.Index != "i" {
		t.Errorf("first inner loop: %+v", i1)
	}
	// Bound N - 1 parsed as Bin(Sub, N, 1).
	hi, ok := i1.Hi.(*ir.Bin)
	if !ok || hi.Op != ir.Sub {
		t.Errorf("Hi = %v", ir.ExprString(i1.Hi))
	}
}

func TestParseRoundTrip(t *testing.T) {
	prog1, err := Parse(jacobiSrc)
	if err != nil {
		t.Fatal(err)
	}
	printed := prog1.String()
	prog2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-parse of printed program failed: %v\n%s", err, printed)
	}
	if prog2.String() != printed {
		t.Errorf("print→parse→print not stable:\n--- first\n%s\n--- second\n%s", printed, prog2.String())
	}
}

func TestParseIfElse(t *testing.T) {
	src := `
program guards
param N
real A(N), s
parallel do i = 1, N
  if i == 1 .or. i == N then
    A(i) = 0.0
  else
    A(i) = 1.0
  end if
end do
s = A(1)
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Body[0].(*ir.Loop)
	iff := loop.Body[0].(*ir.If)
	cond := iff.Cond.(*ir.Bin)
	if cond.Op != ir.OrOp {
		t.Errorf("cond op = %v", cond.Op)
	}
	if len(iff.Then) != 1 || len(iff.Else) != 1 {
		t.Errorf("then/else lens = %d/%d", len(iff.Then), len(iff.Else))
	}
	if _, ok := prog.Body[1].(*ir.Assign); !ok {
		t.Error("trailing scalar assign missing")
	}
}

func TestParseIntrinsics(t *testing.T) {
	src := `
program intr
param N
real A(N), s
parallel do i = 1, N
  A(i) = sqrt(abs(A(i))) + max(s, 2.0)
end do
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	asg := prog.Body[0].(*ir.Loop).Body[0].(*ir.Assign)
	add := asg.RHS.(*ir.Bin)
	if c, ok := add.L.(*ir.Call); !ok || c.Name != "sqrt" {
		t.Errorf("lhs = %v", ir.ExprString(add.L))
	}
	if c, ok := add.R.(*ir.Call); !ok || c.Name != "max" || len(c.Args) != 2 {
		t.Errorf("rhs = %v", ir.ExprString(add.R))
	}
}

func TestParseDottedOperators(t *testing.T) {
	src := `
program dots
param N
real A(N)
parallel do i = 1, N
  if i .ge. 2 .and. i .le. N - 1 then
    A(i) = 1.0
  end if
end do
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	iff := prog.Body[0].(*ir.Loop).Body[0].(*ir.If)
	and := iff.Cond.(*ir.Bin)
	if and.Op != ir.AndOp {
		t.Fatalf("top op = %v", and.Op)
	}
	if and.L.(*ir.Bin).Op != ir.GeOp || and.R.(*ir.Bin).Op != ir.LeOp {
		t.Error("dotted comparisons parsed wrong")
	}
}

func TestParseComments(t *testing.T) {
	src := `
# leading comment
program c1   # trailing comment
param N      ! fortran-style comment
real A(N)
parallel do i = 1, N
  A(i) = 0.0 # set to zero
end do
end
`
	if _, err := Parse(src); err != nil {
		t.Fatalf("comments not skipped: %v", err)
	}
}

func TestParseSemicolons(t *testing.T) {
	src := "program s1\nparam N\nreal A(N), s\ns = 1.0; s = 2.0\nparallel do i = 1, N; A(i) = s; end do\nend\n"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Body) != 3 {
		t.Errorf("body len = %d, want 3", len(prog.Body))
	}
}

func TestParseNegativeAndFloats(t *testing.T) {
	src := `
program neg
param N
real A(N), s
s = -1.5e-3 + .5
parallel do i = 1, N
  A(i) = -s * 2.0
end do
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	asg := prog.Body[0].(*ir.Assign)
	add := asg.RHS.(*ir.Bin)
	if add.Op != ir.Add {
		t.Fatalf("rhs = %v", ir.ExprString(asg.RHS))
	}
	if u, ok := add.L.(*ir.Unary); !ok || u.Op != '-' {
		t.Errorf("lhs of + = %v", ir.ExprString(add.L))
	}
	if n, ok := add.R.(*ir.Num); !ok || n.IsInt || n.Val != 0.5 {
		t.Errorf("rhs of + = %v", ir.ExprString(add.R))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing-program", "param N\nend\n", `expected "program"`},
		{"bad-do", "program x\nreal s\ndo = 1, 2\ns = 1.0\nend do\nend\n", "expected loop index"},
		{"unclosed-loop", "program x\nparam N\nreal A(N)\ndo i = 1, N\nA(i) = 1.0\nend\n", `expected "do"`},
		{"bad-expr", "program x\nreal s\ns = * 2\nend\n", "expected expression"},
		{"trailing", "program x\nreal s\ns = 1.0\nend\njunk\n", "after end of program"},
		{"undeclared", "program x\nreal s\ns = q\nend\n", "undeclared name q"},
		{"bad-char", "program x\nreal s\ns = 1.0 @ 2\nend\n", "unexpected character"},
		{"bad-dotted", "program x\nreal s\nif s .xor. s then\ns = 1.0\nend if\nend\n", "unknown dotted operator"},
		{"missing-paren", "program x\nparam N\nreal A(N)\nA(1 = 2.0\nend\n", "expected ')'"},
		{"shadowed-index", "program x\nparam N\nreal A(N)\ndo i = 1, N\ndo i = 1, N\nA(i) = 1.0\nend do\nend do\nend\n", "shadows"},
		{"deep-parens", "program x\nreal s\ns = " + strings.Repeat("(", 100000) + "1.0" +
			strings.Repeat(")", 100000) + "\nend\n", "nesting deeper than"},
		{"deep-unary", "program x\nreal s\ns = " + strings.Repeat("- ", 100000) + "1.0\nend\n", "nesting deeper than"},
		{"deep-loops", "program x\nparam N\nreal s\n" + nestedLoops(10000) + "end\n", "nesting deeper than"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

func TestErrorHasPosition(t *testing.T) {
	_, err := Parse("program x\nreal s\ns = * 2\nend\n")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.HasPrefix(err.Error(), "3:") {
		t.Errorf("error %q should carry line 3 position", err.Error())
	}
}

func TestKeywordCaseInsensitive(t *testing.T) {
	src := "PROGRAM up\nPARAM N\nREAL A(N)\nPARALLEL DO i = 1, N\nA(i) = 1.0\nEND DO\nEND\n"
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("uppercase keywords rejected: %v", err)
	}
	if !prog.Body[0].(*ir.Loop).Parallel {
		t.Error("PARALLEL DO not recognized")
	}
}

// TestGuardedBodyPositions pins the source positions of statements nested
// inside IF bodies (both arms, including a nested conditional): diagnostics
// from the lint and certify passes anchor on these positions, so a
// statement inside a guard must not inherit the guard's own position.
func TestGuardedBodyPositions(t *testing.T) {
	src := `program x
param N
real A(N), s
do i = 2, N - 1
  if i == 2 then
    A(i) = 1.0
    if i > 1 then
      s = 2.0
    end if
  else
    A(i) = 3.0
  end if
end do
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Body[0].(*ir.Loop)
	guard := loop.Body[0].(*ir.If)
	if guard.Pos() != (ir.Pos{Line: 5, Col: 3}) {
		t.Errorf("if position = %v, want 5:3", guard.Pos())
	}
	thenAssign := guard.Then[0].(*ir.Assign)
	if thenAssign.Pos() != (ir.Pos{Line: 6, Col: 5}) {
		t.Errorf("then-arm assign position = %v, want 6:5", thenAssign.Pos())
	}
	nested := guard.Then[1].(*ir.If)
	if nested.Pos() != (ir.Pos{Line: 7, Col: 5}) {
		t.Errorf("nested if position = %v, want 7:5", nested.Pos())
	}
	nestedAssign := nested.Then[0].(*ir.Assign)
	if nestedAssign.Pos() != (ir.Pos{Line: 8, Col: 7}) {
		t.Errorf("nested then assign position = %v, want 8:7", nestedAssign.Pos())
	}
	elseAssign := guard.Else[0].(*ir.Assign)
	if elseAssign.Pos() != (ir.Pos{Line: 11, Col: 5}) {
		t.Errorf("else-arm assign position = %v, want 11:5", elseAssign.Pos())
	}
	// The else-arm reference keeps its own expression position too.
	if p := elseAssign.LHS.Pos(); p != (ir.Pos{Line: 11, Col: 5}) {
		t.Errorf("else-arm LHS position = %v, want 11:5", p)
	}
}

// TestDeclarationPositions pins DeclPos for params, arrays and scalars; the
// unused-declaration lint and redeclaration validation anchor on them.
func TestDeclarationPositions(t *testing.T) {
	src := `program x
param N, T
real A(N, N), s, B(N)
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]ir.Pos{
		"N": {Line: 2, Col: 7},
		"T": {Line: 2, Col: 10},
		"A": {Line: 3, Col: 6},
		"s": {Line: 3, Col: 15},
		"B": {Line: 3, Col: 18},
	}
	for name, wp := range want {
		if got := prog.PosOf(name); got != wp {
			t.Errorf("PosOf(%s) = %v, want %v", name, got, wp)
		}
	}
	if prog.Arrays[0].P != (ir.Pos{Line: 3, Col: 6}) {
		t.Errorf("ArrayDecl A position = %v, want 3:6", prog.Arrays[0].P)
	}
	// A redeclaration diagnostic must point at the duplicate's position.
	_, err = Parse("program x\nparam N\nreal A(N)\nreal A(N)\nend\n")
	if err == nil || !strings.HasPrefix(err.Error(), "4:6:") {
		t.Errorf("redeclaration error %q should carry position 4:6", err)
	}
}

// nestedLoops is n do loops, each inside the one before, with distinct
// indices and one assignment in the innermost.
func nestedLoops(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "do i%d = 1, N\n", i)
	}
	b.WriteString("s = 1.0\n")
	b.WriteString(strings.Repeat("end do\n", n))
	return b.String()
}
