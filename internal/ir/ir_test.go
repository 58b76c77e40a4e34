package ir

import (
	"strings"
	"testing"

	"repro/internal/linear"
)

// buildJacobi constructs a small Jacobi-style program programmatically:
//
//	program jac
//	param N
//	real A(N), B(N)
//	parallel do i = 2, N - 1
//	  B(i) = 0.5 * (A(i - 1) + A(i + 1))
//	end do
func buildJacobi() *Program {
	i := NewRef("i")
	loop := &Loop{
		Index:    "i",
		Lo:       IntLit(2),
		Hi:       NewBin(Sub, NewRef("N"), IntLit(1)),
		Parallel: true,
		Body: []Stmt{
			&Assign{
				LHS: NewIndex("B", CloneExpr(i)),
				RHS: NewBin(Mul, FloatLit(0.5),
					NewBin(Add,
						NewIndex("A", NewBin(Sub, CloneExpr(i), IntLit(1))),
						NewIndex("A", NewBin(Add, CloneExpr(i), IntLit(1))))),
			},
		},
	}
	return &Program{
		Name:   "jac",
		Params: []string{"N"},
		Arrays: []*ArrayDecl{
			{Name: "A", Dims: []Expr{NewRef("N")}},
			{Name: "B", Dims: []Expr{NewRef("N")}},
		},
		Body: []Stmt{loop},
	}
}

func TestProgramLookups(t *testing.T) {
	p := buildJacobi()
	if p.Array("A") == nil || p.Array("B") == nil {
		t.Fatal("Array lookup failed")
	}
	if p.Array("C") != nil {
		t.Error("Array(C) should be nil")
	}
	if !p.IsParam("N") || p.IsParam("A") {
		t.Error("IsParam wrong")
	}
	if p.IsScalar("N") {
		t.Error("IsScalar(N) should be false")
	}
	if p.Array("A").Rank() != 1 {
		t.Error("rank wrong")
	}
}

func TestWalkStmtsPrune(t *testing.T) {
	p := buildJacobi()
	var count int
	WalkStmts(p.Body, func(s Stmt) bool {
		count++
		_, isLoop := s.(*Loop)
		return !isLoop // prune loop bodies
	})
	if count != 1 {
		t.Errorf("pruned walk visited %d statements, want 1", count)
	}
	count = 0
	WalkStmts(p.Body, func(s Stmt) bool { count++; return true })
	if count != 2 {
		t.Errorf("full walk visited %d statements, want 2", count)
	}
}

func TestCollectAccesses(t *testing.T) {
	p := buildJacobi()
	accs := CollectAccesses(p.Body)
	var writes, arrayReads, idxReads int
	for _, a := range accs {
		switch {
		case a.Write:
			writes++
			if a.Ref.Name != "B" {
				t.Errorf("unexpected write to %s", a.Ref.Name)
			}
		case a.Ref.IsArray():
			arrayReads++
		case a.Ref.Name == "i":
			idxReads++
		}
	}
	if writes != 1 {
		t.Errorf("writes = %d, want 1", writes)
	}
	if arrayReads != 2 {
		t.Errorf("array reads = %d, want 2", arrayReads)
	}
	if idxReads < 3 { // B(i), A(i-1), A(i+1) subscripts
		t.Errorf("index reads = %d, want >= 3", idxReads)
	}
}

func TestReadsWritesOf(t *testing.T) {
	p := buildJacobi()
	w := WritesOf(p.Body)
	if !w["B"] || w["A"] {
		t.Errorf("WritesOf = %v", w)
	}
	r := ReadsOf(p.Body)
	if !r["A"] || !r["N"] || !r["i"] {
		t.Errorf("ReadsOf = %v", r)
	}
	idx := LoopIndicesOf(p.Body)
	if !idx["i"] || len(idx) != 1 {
		t.Errorf("LoopIndicesOf = %v", idx)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := buildJacobi()
	orig := p.Body[0].(*Loop)
	cl := CloneStmt(orig).(*Loop)
	cl.Body[0].(*Assign).LHS.Name = "Z"
	cl.Index = "q"
	if orig.Body[0].(*Assign).LHS.Name != "B" || orig.Index != "i" {
		t.Error("CloneStmt shares state with the original")
	}
}

func TestSubstituteExpr(t *testing.T) {
	// A(i+1) + i with i := j-1 becomes A(j-1+1) + (j-1).
	e := NewBin(Add, NewIndex("A", NewBin(Add, NewRef("i"), IntLit(1))), NewRef("i"))
	repl := NewBin(Sub, NewRef("j"), IntLit(1))
	got := SubstituteExpr(e, "i", repl)
	s := ExprString(got)
	if !strings.Contains(s, "j - 1 + 1") || !strings.Contains(s, "+ (j - 1)") {
		t.Errorf("substituted = %q", s)
	}
	// Array names are not substituted.
	got2 := SubstituteExpr(NewIndex("i", IntLit(1)), "i", NewRef("j"))
	if got2.(*Ref).Name != "i" {
		t.Error("array name was substituted")
	}
}

func TestAffineConversion(t *testing.T) {
	p := buildJacobi()
	env := NewAffineEnv(p).Bind("i", linear.Loop("i"))

	// i + 1 is affine.
	a, ok := env.Affine(NewBin(Add, NewRef("i"), IntLit(1)))
	if !ok || a.Coeff(linear.Loop("i")) != 1 || a.Const != 1 {
		t.Errorf("i+1 affine = %v ok=%v", a, ok)
	}
	// 2*N - i is affine.
	a, ok = env.Affine(NewBin(Sub, NewBin(Mul, IntLit(2), NewRef("N")), NewRef("i")))
	if !ok || a.Coeff(linear.Sym("N")) != 2 || a.Coeff(linear.Loop("i")) != -1 {
		t.Errorf("2N-i affine = %v ok=%v", a, ok)
	}
	// -i via unary minus.
	a, ok = env.Affine(&Unary{Op: '-', X: NewRef("i")})
	if !ok || a.Coeff(linear.Loop("i")) != -1 {
		t.Errorf("-i affine = %v ok=%v", a, ok)
	}
	// i*i is not affine.
	if _, ok = env.Affine(NewBin(Mul, NewRef("i"), NewRef("i"))); ok {
		t.Error("i*i reported affine")
	}
	// A(i) is not affine.
	if _, ok = env.Affine(NewIndex("A", NewRef("i"))); ok {
		t.Error("A(i) reported affine")
	}
	// Unbound scalar is not affine.
	if _, ok = env.Affine(NewRef("s")); ok {
		t.Error("unbound scalar reported affine")
	}
	// Float literal is not an index expression.
	if _, ok = env.Affine(FloatLit(1.5)); ok {
		t.Error("float literal reported affine")
	}
	// Division is not affine.
	if _, ok = env.Affine(NewBin(Div, NewRef("N"), IntLit(2))); ok {
		t.Error("N/2 reported affine")
	}
}

func TestAffineSubs(t *testing.T) {
	p := buildJacobi()
	env := NewAffineEnv(p).Bind("i", linear.Loop("i"))
	r := NewIndex("A", NewBin(Sub, NewRef("i"), IntLit(1)))
	subs, ok := env.AffineSubs(r)
	if !ok || len(subs) != 1 || subs[0].Const != -1 {
		t.Errorf("AffineSubs = %v ok=%v", subs, ok)
	}
	bad := NewIndex("A", NewBin(Mul, NewRef("i"), NewRef("i")))
	if _, ok := env.AffineSubs(bad); ok {
		t.Error("non-affine subscript accepted")
	}
}

func TestEnvCloneBind(t *testing.T) {
	p := buildJacobi()
	env := NewAffineEnv(p).Bind("i", linear.Loop("i1"))
	c := env.Clone().Bind("i", linear.Loop("i2"))
	a1, _ := env.Affine(NewRef("i"))
	a2, _ := c.Affine(NewRef("i"))
	if a1.Coeff(linear.Loop("i1")) != 1 || a2.Coeff(linear.Loop("i2")) != 1 {
		t.Error("Clone shares loop bindings")
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if errs := Validate(buildJacobi()); len(errs) != 0 {
		t.Fatalf("valid program rejected: %v", errs)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Program)
		want   string
	}{
		{"undeclared", func(p *Program) {
			p.Body[0].(*Loop).Body[0].(*Assign).RHS = NewRef("zzz")
		}, "undeclared name zzz"},
		{"arity", func(p *Program) {
			p.Body[0].(*Loop).Body[0].(*Assign).RHS = NewIndex("A", IntLit(1), IntLit(2))
		}, "rank 1 but 2 subscripts"},
		{"assign-to-param", func(p *Program) {
			p.Body = append(p.Body, &Assign{LHS: NewRef("N"), RHS: IntLit(3)})
		}, "assignment to parameter"},
		{"assign-to-index", func(p *Program) {
			l := p.Body[0].(*Loop)
			l.Body = append(l.Body, &Assign{LHS: NewRef("i"), RHS: IntLit(3)})
		}, "assignment to loop index"},
		{"array-no-subs", func(p *Program) {
			p.Body[0].(*Loop).Body[0].(*Assign).RHS = NewRef("A")
		}, "used without subscripts"},
		{"shadow", func(p *Program) {
			l := p.Body[0].(*Loop)
			l.Body = append(l.Body, &Loop{Index: "i", Lo: IntLit(1), Hi: IntLit(2)})
		}, "shadows an enclosing"},
		{"bad-intrinsic", func(p *Program) {
			p.Body[0].(*Loop).Body[0].(*Assign).RHS = &Call{Name: "frobnicate", Args: []Expr{IntLit(1)}}
		}, "unknown intrinsic"},
		{"intrinsic-arity", func(p *Program) {
			p.Body[0].(*Loop).Body[0].(*Assign).RHS = &Call{Name: "sqrt", Args: []Expr{IntLit(1), IntLit(2)}}
		}, "takes 1 argument"},
		{"redeclared", func(p *Program) {
			p.Scalars = append(p.Scalars, "A")
		}, "redeclared"},
		{"nonaffine-extent", func(p *Program) {
			p.Arrays[0].Dims[0] = &Call{Name: "sqrt", Args: []Expr{NewRef("N")}}
		}, "neither affine nor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := buildJacobi()
			tc.mutate(p)
			errs := Validate(p)
			if len(errs) == 0 {
				t.Fatalf("mutation %s not caught", tc.name)
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("errors %v do not mention %q", errs, tc.want)
			}
		})
	}
}

func TestPrintProgram(t *testing.T) {
	p := buildJacobi()
	out := p.String()
	for _, want := range []string{
		"program jac",
		"param N",
		"real A(N), B(N)",
		"parallel do i = 2, N - 1",
		"B(i) = 0.5 * (A(i - 1) + A(i + 1))",
		"end do",
		"end",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed program missing %q:\n%s", want, out)
		}
	}
}

func TestExprStringParens(t *testing.T) {
	// (a + b) * c needs parens; a + b * c does not.
	a, b, c := NewRef("a"), NewRef("b"), NewRef("c")
	e1 := NewBin(Mul, NewBin(Add, a, b), c)
	if got := ExprString(e1); got != "(a + b) * c" {
		t.Errorf("ExprString = %q", got)
	}
	e2 := NewBin(Add, NewRef("a"), NewBin(Mul, NewRef("b"), NewRef("c")))
	if got := ExprString(e2); got != "a + b * c" {
		t.Errorf("ExprString = %q", got)
	}
	// Subtraction is left-associative: a - (b - c) keeps parens.
	e3 := NewBin(Sub, NewRef("a"), NewBin(Sub, NewRef("b"), NewRef("c")))
	if got := ExprString(e3); got != "a - (b - c)" {
		t.Errorf("ExprString = %q", got)
	}
}

func TestStmtString(t *testing.T) {
	p := buildJacobi()
	l := p.Body[0].(*Loop)
	if got := StmtString(l); !strings.HasPrefix(got, "parallel do i = 2, N - 1") {
		t.Errorf("StmtString(loop) = %q", got)
	}
	if got := StmtString(l.Body[0]); !strings.HasPrefix(got, "B(i) =") {
		t.Errorf("StmtString(assign) = %q", got)
	}
}

func TestBinKindHelpers(t *testing.T) {
	if !LtOp.IsCompare() || Add.IsCompare() {
		t.Error("IsCompare wrong")
	}
	if Add.String() != "+" || AndOp.String() != ".and." {
		t.Error("BinKind.String wrong")
	}
}

func TestIntrinsicTable(t *testing.T) {
	if !IsIntrinsic("sqrt") || IsIntrinsic("bogus") {
		t.Error("IsIntrinsic wrong")
	}
	if IntrinsicArity("min") != 2 || IntrinsicArity("abs") != 1 {
		t.Error("IntrinsicArity wrong")
	}
}
