package linear

import "testing"

func TestEnumerateFindsPoint(t *testing.T) {
	// 1 <= i <= N, i == 3, N <= 8
	N, i := Sym("N"), Loop("i")
	s := NewSystem().
		AddRange(i, NewAffine(1), VarExpr(N)).
		AddEQ(VarExpr(i), NewAffine(3)).
		AddLE(VarExpr(N), NewAffine(8))
	pt, res := s.Enumerate(EnumOptions{Range: map[Var][2]int64{N: {1, 8}}})
	if res != EnumPoint {
		t.Fatalf("want EnumPoint, got %v", res)
	}
	if pt[i] != 3 {
		t.Errorf("i = %d, want 3", pt[i])
	}
	if !s.Holds(pt) {
		t.Errorf("returned point does not satisfy the system: %v", pt)
	}
}

func TestEnumerateInfeasible(t *testing.T) {
	// i >= 5 and i <= 3: empty.
	i := Loop("i")
	s := NewSystem().
		AddGE(VarExpr(i), NewAffine(5)).
		AddLE(VarExpr(i), NewAffine(3))
	if pt, res := s.Enumerate(EnumOptions{}); res != EnumNoPoint {
		t.Fatalf("want EnumNoPoint, got %v (pt=%v)", res, pt)
	}
}

func TestEnumerateAgreesWithSolve(t *testing.T) {
	N, i, j := Sym("N"), Loop("i"), Loop("j")
	cases := []struct {
		name string
		sys  *System
	}{
		{"feasible-box", NewSystem().
			AddRange(i, NewAffine(1), VarExpr(N)).
			AddRange(j, NewAffine(1), VarExpr(N)).
			AddGE(VarExpr(N), NewAffine(2)).
			AddLE(VarExpr(N), NewAffine(6)).
			AddEQ(VarExpr(i), VarExpr(j).AddConst(1))},
		{"infeasible-order", NewSystem().
			AddRange(i, NewAffine(1), VarExpr(N)).
			AddGE(VarExpr(N), NewAffine(1)).
			AddLE(VarExpr(N), NewAffine(6)).
			AddGE(VarExpr(i), VarExpr(N).AddConst(1))},
		{"infeasible-parity-free", NewSystem().
			AddEQ(VarExpr(i).Scale(2), NewAffine(7))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fm := tc.sys.Copy().Solve()
			pt, res := tc.sys.Enumerate(EnumOptions{})
			switch res {
			case EnumPoint:
				if fm == Infeasible {
					t.Fatalf("FM says infeasible but enumeration found %v — solver bug", pt)
				}
				if !tc.sys.Holds(pt) {
					t.Fatalf("enumeration returned a non-solution: %v", pt)
				}
			case EnumNoPoint:
				// FM may still say Feasible (rational relaxation, e.g. 2i == 7),
				// but Infeasible-from-FM must never coexist with a point.
			case EnumBudget:
				t.Skip("budget exhausted; no verdict")
			}
		})
	}
}

func TestEnumerateBudget(t *testing.T) {
	i, j := Loop("i"), Loop("j")
	s := NewSystem().
		AddRange(i, NewAffine(1), NewAffine(1000)).
		AddRange(j, NewAffine(1), NewAffine(1000)).
		AddEQ(VarExpr(i).Add(VarExpr(j)), NewAffine(5000)) // infeasible inside box? 5000 > 2000, infeasible
	if _, res := s.Enumerate(EnumOptions{Budget: 10}); res != EnumBudget {
		t.Fatalf("want EnumBudget, got %v", res)
	}
}

// TestEnumerateOverflowIsBudget: row evaluation is overflow-checked. 2^62*x
// wraps to 0 at x = 4, where unchecked arithmetic would "find" 2^62*4 + y == 1
// at y = 1; the result must be unusable instead.
func TestEnumerateOverflowIsBudget(t *testing.T) {
	x, y := Sym("x"), Loop("y")
	s := NewSystem().
		AddRange(x, NewAffine(4), NewAffine(4)).
		AddEQ(Term(x, 1<<62).Add(VarExpr(y)), NewAffine(1))
	if pt, res := s.Enumerate(EnumOptions{}); res != EnumBudget {
		t.Fatalf("want EnumBudget on overflow, got %v (pt=%v)", res, pt)
	}
	// Negating the most negative bound is an overflow too.
	s = NewSystem().Add(Constraint{Expr: VarExpr(y).AddConst(-1 << 63), Op: OpGE})
	if pt, res := s.Enumerate(EnumOptions{}); res != EnumBudget {
		t.Fatalf("want EnumBudget on overflow, got %v (pt=%v)", res, pt)
	}
}

func TestEnumerateSymbolicRange(t *testing.T) {
	N, M, i := Sym("N"), Sym("M"), Loop("i")
	s := NewSystem().AddGE(VarExpr(i), VarExpr(N).Add(VarExpr(M))).AddLE(VarExpr(i), NewAffine(40))
	pt, res := s.Enumerate(EnumOptions{SymbolicRange: [2]int64{5, 6}, Range: map[Var][2]int64{M: {9, 9}}})
	if res != EnumPoint || pt[N] != 5 || pt[M] != 9 || pt[i] != 14 {
		t.Fatalf("got %v %v, want N=5 (symbolic box) M=9 (explicit range) i=14", res, pt)
	}
}
