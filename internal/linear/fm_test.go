package linear

import (
	"math/rand"
	"testing"
)

func TestSolveEmpty(t *testing.T) {
	if got := NewSystem().Solve(); got != Feasible {
		t.Errorf("empty system = %v, want Feasible", got)
	}
}

func TestSolveConstantContradiction(t *testing.T) {
	s := NewSystem().AddGE(NewAffine(-1), NewAffine(0)) // -1 >= 0
	if got := s.Solve(); got != Infeasible {
		t.Errorf("got %v, want Infeasible", got)
	}
}

func TestSolveSimpleBox(t *testing.T) {
	// 1 <= i <= 10 is feasible; adding i >= 11 is not.
	s := NewSystem().AddRange(vi, NewAffine(1), NewAffine(10))
	if got := s.Solve(); got != Feasible {
		t.Fatalf("box = %v", got)
	}
	s.AddGE(VarExpr(vi), NewAffine(11))
	if got := s.Solve(); got != Infeasible {
		t.Errorf("box ∧ i>=11 = %v, want Infeasible", got)
	}
}

func TestSolveEqualityPropagation(t *testing.T) {
	// i == j, i <= 3, j >= 5  ⇒ infeasible.
	s := NewSystem().
		AddEQ(VarExpr(vi), VarExpr(vj)).
		AddLE(VarExpr(vi), NewAffine(3)).
		AddGE(VarExpr(vj), NewAffine(5))
	if got := s.Solve(); got != Infeasible {
		t.Errorf("got %v, want Infeasible", got)
	}
}

func TestSolveIntegerGCDEquality(t *testing.T) {
	// 2i == 1 has no integer solution (rational only).
	s := NewSystem().AddEQ(Term(vi, 2), NewAffine(1))
	if got := s.Solve(); got != Infeasible {
		t.Errorf("2i==1: got %v, want Infeasible", got)
	}
}

func TestSolveIntegerTightening(t *testing.T) {
	// 3 <= 2i <= 3 (i.e. 2i == 3 via inequalities) has no integer
	// solution; GCD tightening catches it without equality reasoning.
	s := NewSystem().
		AddGE(Term(vi, 2), NewAffine(3)).
		AddLE(Term(vi, 2), NewAffine(3))
	if got := s.Solve(); got != Infeasible {
		t.Errorf("3<=2i<=3: got %v, want Infeasible", got)
	}
}

func TestSolveSymbolicFeasible(t *testing.T) {
	// 1 <= i <= N with assumption N >= 1: feasible.
	s := NewSystem().
		AddRange(vi, NewAffine(1), VarExpr(vN)).
		AddGE(VarExpr(vN), NewAffine(1))
	if got := s.Solve(); got != Feasible {
		t.Errorf("got %v, want Feasible", got)
	}
}

func TestSolveSymbolicInfeasible(t *testing.T) {
	// 1 <= i <= N, i >= N+1: infeasible regardless of N.
	s := NewSystem().
		AddRange(vi, NewAffine(1), VarExpr(vN)).
		AddGE(VarExpr(vi), VarExpr(vN).AddConst(1))
	if got := s.Solve(); got != Infeasible {
		t.Errorf("got %v, want Infeasible", got)
	}
}

// TestSolveStencilOwnership is the paper's central test in miniature:
// block-partitioned loop writing A(i) and reading A(i) — same element, same
// owner ⇒ no interprocessor communication.
func TestSolveStencilOwnership(t *testing.T) {
	u1, u2, B := Proc("u1"), Proc("u2"), Sym("B")
	i1, i2 := Loop("i1"), Loop("i2")
	a := Arr("a0")
	// Owner-computes: the producer owns the iteration it writes (i1),
	// and the consumer owns the iteration whose body performs the read
	// (i2) — not the element it reads.
	base := NewSystem().
		AddGE(VarExpr(B), NewAffine(1)).
		// loop bounds 1..N for both
		AddRange(i1, NewAffine(1), VarExpr(vN)).
		AddRange(i2, NewAffine(1), VarExpr(vN)).
		// ownership: u+1 <= x <= u+B where x is the owning index
		AddRange(i1, VarExpr(u1).AddConst(1), VarExpr(u1).Add(VarExpr(B))).
		AddRange(i2, VarExpr(u2).AddConst(1), VarExpr(u2).Add(VarExpr(B))).
		AddGE(VarExpr(u1), NewAffine(0)).
		AddGE(VarExpr(u2), NewAffine(0))

	// Same element: write A(i1), read A(i2) with subscripts equal to a.
	same := base.Copy().
		AddEQ(VarExpr(i1), VarExpr(a)).
		AddEQ(VarExpr(i2), VarExpr(a))

	// Different processors: u1 - u2 >= B (one branch of |u1-u2| >= B).
	branch1 := same.Copy().AddGE(VarExpr(u1).Sub(VarExpr(u2)), VarExpr(B))
	branch2 := same.Copy().AddGE(VarExpr(u2).Sub(VarExpr(u1)), VarExpr(B))
	if branch1.Solve() != Infeasible || branch2.Solve() != Infeasible {
		t.Error("A(i)→A(i) with aligned blocks should have no communication")
	}

	// Neighbor element: write A(i1), read A(i2-1) i.e. a == i2-1.
	shift := base.Copy().
		AddEQ(VarExpr(i1), VarExpr(a)).
		AddEQ(VarExpr(i2).AddConst(-1), VarExpr(a))
	b1 := shift.Copy().AddGE(VarExpr(u1).Sub(VarExpr(u2)), VarExpr(B))
	b2 := shift.Copy().AddGE(VarExpr(u2).Sub(VarExpr(u1)), VarExpr(B))
	if b1.Solve() != Infeasible {
		t.Error("upward branch should be infeasible for A(i-1) read")
	}
	if b2.Solve() != Feasible {
		t.Error("downward branch should be feasible (boundary exchange)")
	}
	// ... and it is nearest-neighbor: distance >= 2B infeasible.
	far := shift.Copy().AddGE(VarExpr(u2).Sub(VarExpr(u1)), Term(B, 2))
	if far.Solve() != Infeasible {
		t.Error("communication should be nearest-neighbor only")
	}
}

func TestImplies(t *testing.T) {
	s := NewSystem().AddRange(vi, NewAffine(3), NewAffine(7))
	if !s.Implies(GE(VarExpr(vi), NewAffine(1))) {
		t.Error("3<=i<=7 should imply i>=1")
	}
	if s.Implies(GE(VarExpr(vi), NewAffine(5))) {
		t.Error("3<=i<=7 should not imply i>=5")
	}
	if !s.Copy().AddEQ(VarExpr(vj), VarExpr(vi)).Implies(EQ(VarExpr(vj), VarExpr(vi))) {
		t.Error("i==j should imply i==j")
	}
}

func TestProject(t *testing.T) {
	// 1 <= i <= N ∧ j == i + 1, project out i,j: constraints on N alone.
	s := NewSystem().
		AddRange(vi, NewAffine(1), VarExpr(vN)).
		AddEQ(VarExpr(vj), VarExpr(vi).AddConst(1))
	proj, ok := s.Project(func(v Var) bool { return v.Kind == KindLoop })
	if !ok {
		t.Fatal("projection failed")
	}
	// Expect N >= 1 to survive.
	if !proj.Implies(GE(VarExpr(vN), NewAffine(1))) {
		t.Errorf("projection %v should imply N >= 1", proj)
	}
	for _, v := range proj.Vars() {
		if v.Kind == KindLoop {
			t.Errorf("loop var %v survived projection", v)
		}
	}
}

func TestProjectInfeasible(t *testing.T) {
	s := NewSystem().
		AddGE(VarExpr(vi), NewAffine(5)).
		AddLE(VarExpr(vi), NewAffine(2))
	if _, ok := s.Project(func(v Var) bool { return true }); ok {
		t.Error("projection of infeasible system should report !ok")
	}
}

func TestSolveNoSubstAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := randomSystem(rng, 3, 5)
		a, b := s.Solve(), s.SolveNoSubst()
		if a == Unknown || b == Unknown {
			continue
		}
		// Substitution adds integer precision (exact equality
		// handling), so Solve may prove Infeasible where the
		// rational-only pass says Feasible — but never the reverse:
		// SolveNoSubst proving Infeasible means rationally empty,
		// which Solve must detect too.
		if b == Infeasible && a != Infeasible {
			t.Fatalf("Solve=%v but SolveNoSubst=Infeasible for %v", a, s)
		}
	}
}

func TestUnknownOnBlowup(t *testing.T) {
	// A dense system engineered to exceed the step limit: many vars,
	// every pair related. With 300 interleaved vars the solver should
	// give up rather than hang.
	s := NewSystem()
	vars := make([]Var, 300)
	for i := range vars {
		vars[i] = Loop(name2("v", i))
	}
	for i := 0; i < len(vars)-1; i++ {
		s.AddGE(VarExpr(vars[i]).Add(VarExpr(vars[i+1])), NewAffine(0))
		s.AddLE(VarExpr(vars[i]).Sub(VarExpr(vars[(i+7)%len(vars)])), NewAffine(3))
	}
	got := s.Solve()
	if got == Infeasible {
		t.Errorf("engineered system reported Infeasible; want Feasible or Unknown")
	}
}

func name2(p string, i int) string {
	return p + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

func TestHolds(t *testing.T) {
	s := NewSystem().
		AddRange(vi, NewAffine(1), NewAffine(5)).
		AddEQ(VarExpr(vj), VarExpr(vi).AddConst(1))
	if !s.Holds(map[Var]int64{vi: 3, vj: 4}) {
		t.Error("satisfying point rejected")
	}
	if s.Holds(map[Var]int64{vi: 3, vj: 5}) {
		t.Error("violating point accepted")
	}
}

func TestResultStrings(t *testing.T) {
	if Infeasible.String() != "infeasible" || Feasible.String() != "feasible" || Unknown.String() != "unknown" {
		t.Error("Result strings wrong")
	}
	if Infeasible.MayHold() {
		t.Error("Infeasible.MayHold() = true")
	}
	if !Unknown.MayHold() || !Feasible.MayHold() {
		t.Error("Feasible/Unknown should MayHold")
	}
}

// randomSystem builds a small random system over nv loop variables with nc
// constraints, coefficients in [-3,3], constants in [-6,6].
func randomSystem(rng *rand.Rand, nv, nc int) *System {
	vars := make([]Var, nv)
	for i := range vars {
		vars[i] = Loop(name2("x", i))
	}
	s := NewSystem()
	for c := 0; c < nc; c++ {
		a := NewAffine(int64(rng.Intn(13) - 6))
		for _, v := range vars {
			a = a.Add(Term(v, int64(rng.Intn(7)-3)))
		}
		if rng.Intn(4) == 0 {
			s.Add(Constraint{Expr: a, Op: OpEQ})
		} else {
			s.Add(Constraint{Expr: a, Op: OpGE})
		}
	}
	return s
}

// TestSolveAgainstBruteForce cross-checks FM feasibility with exhaustive
// integer enumeration on a bounded box. Any point found by enumeration must
// be declared Feasible; Infeasible answers are verified exactly (within the
// box — FM Infeasible is global, so enumeration finding a point would be a
// hard bug).
func TestSolveAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const B = 4
	for trial := 0; trial < 400; trial++ {
		nv := 2 + rng.Intn(2) // 2..3 vars
		s := randomSystem(rng, nv, 2+rng.Intn(4))
		vars := make([]Var, nv)
		for i := range vars {
			vars[i] = Loop(name2("x", i))
		}
		// Bound the box so enumeration is meaningful and finite.
		boxed := s.Copy()
		for _, v := range vars {
			boxed.AddRange(v, NewAffine(-B), NewAffine(B))
		}
		found := enumerate(boxed, vars, -B, B)
		got := boxed.Solve()
		if found && got == Infeasible {
			t.Fatalf("trial %d: enumeration found a point but Solve = Infeasible\nsystem: %v", trial, boxed)
		}
		// FM without dark shadow can report Feasible for integer-empty
		// systems, so !found with got==Feasible is acceptable only when a
		// rational point may exist. We can't cheaply verify rational
		// feasibility here, so no assertion in that direction.
	}
}

func enumerate(s *System, vars []Var, lo, hi int64) bool {
	env := map[Var]int64{}
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(vars) {
			return s.Holds(env)
		}
		for x := lo; x <= hi; x++ {
			env[vars[k]] = x
			if rec(k + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// TestDecisionProceduresLeaveReceiverAlone pins what callers rely on when
// they skip the defensive Copy: solving, projecting and enumerating work on
// a compiled copy, so the system still reads the same afterwards — including
// one whose rows the solver rescales (gcd 2), substitutes and splits.
func TestDecisionProceduresLeaveReceiverAlone(t *testing.T) {
	N, i, j := Sym("N"), Loop("i"), Loop("j")
	s := NewSystem().
		AddRange(i, NewAffine(1), VarExpr(N)).
		AddGE(VarExpr(j).Scale(2), VarExpr(i).Scale(2).AddConst(3)).
		AddEQ(VarExpr(j), VarExpr(i).AddConst(2)).
		AddLE(VarExpr(N), NewAffine(6))
	before := s.String()
	frozen := s.Copy()
	s.Solve()
	s.SolveDetailed()
	s.SolveNoSubst()
	s.Project(func(v Var) bool { return v.Kind == KindLoop })
	s.Implies(GE(VarExpr(j), NewAffine(0)))
	s.Enumerate(EnumOptions{})
	if after := s.String(); after != before {
		t.Fatalf("system changed:\nbefore %s\nafter  %s", before, after)
	}
	for k := range s.Cons {
		if !s.Cons[k].Expr.Equal(frozen.Cons[k].Expr) || s.Cons[k].Op != frozen.Cons[k].Op {
			t.Fatalf("constraint %d changed: %v, was %v", k, s.Cons[k], frozen.Cons[k])
		}
	}
}

func TestCheckedArithmeticEdges(t *testing.T) {
	overflows := func(f func()) (caught bool) {
		defer func() {
			if r := recover(); r != nil {
				_, caught = r.(canceled)
			}
		}()
		f()
		return false
	}
	min := int64(-1 << 63)
	for name, f := range map[string]func(){
		"min * -1":  func() { mulChecked(min, -1) },
		"-1 * min":  func() { mulChecked(-1, min) },
		"2^62 * 2":  func() { mulChecked(1<<62, 2) },
		"max + 1":   func() { addChecked(1<<63-1, 1) },
		"min + -1":  func() { addChecked(min, -1) },
		"2^62 * -4": func() { mulChecked(1<<62, -4) },
	} {
		if !overflows(f) {
			t.Errorf("%s: overflow not detected", name)
		}
	}
	if mulChecked(1<<62, -2) != min || mulChecked(min, 1) != min || addChecked(min, 1<<63-1) != -1 {
		t.Error("checked arithmetic rejected or miscomputed an in-range result")
	}
}
