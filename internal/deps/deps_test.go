package deps

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
)

// loopAt digs out a loop by path of child indices through Body slices.
func loopAt(t *testing.T, prog *ir.Program, path ...int) (*ir.Loop, []*ir.Loop) {
	t.Helper()
	var outer []*ir.Loop
	stmts := prog.Body
	var cur *ir.Loop
	for _, idx := range path {
		l, ok := stmts[idx].(*ir.Loop)
		if !ok {
			t.Fatalf("path %v: statement is %T, not loop", path, stmts[idx])
		}
		if cur != nil {
			outer = append(outer, cur)
		}
		cur = l
		stmts = l.Body
	}
	return cur, outer
}

func parse(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func TestNoCarriedDepIndependentElements(t *testing.T) {
	prog := parse(t, `
program p
param N
real A(N), B(N)
do i = 1, N
  B(i) = A(i) + 1.0
end do
end
`)
	loop, outer := loopAt(t, prog, 0)
	ctx := NewContext(prog, 1)
	if deps := ctx.CarriedByLoop(loop, outer); len(deps) != 0 {
		t.Errorf("B(i)=A(i): unexpected carried deps %v", deps)
	}
}

func TestCarriedFlowDep(t *testing.T) {
	prog := parse(t, `
program p
param N
real A(N)
do i = 2, N
  A(i) = A(i - 1) + 1.0
end do
end
`)
	loop, outer := loopAt(t, prog, 0)
	ctx := NewContext(prog, 1)
	deps := ctx.CarriedByLoop(loop, outer)
	if len(deps) == 0 {
		t.Fatal("recurrence A(i)=A(i-1) has no carried dep?")
	}
	foundFlow := false
	for _, d := range deps {
		if d.Kind == Flow && d.Exact {
			foundFlow = true
		}
	}
	if !foundFlow {
		t.Errorf("no exact flow dep in %v", deps)
	}
}

func TestAntiDepOnly(t *testing.T) {
	prog := parse(t, `
program p
param N
real A(N)
do i = 1, N - 1
  A(i) = A(i + 1) + 1.0
end do
end
`)
	loop, outer := loopAt(t, prog, 0)
	ctx := NewContext(prog, 1)
	deps := ctx.CarriedByLoop(loop, outer)
	for _, d := range deps {
		if d.Kind == Flow {
			t.Errorf("A(i)=A(i+1) should carry anti, not flow: %v", d)
		}
	}
	hasAnti := false
	for _, d := range deps {
		if d.Kind == Anti {
			hasAnti = true
		}
	}
	if !hasAnti {
		t.Error("missing carried anti dependence")
	}
}

func TestStrideTwoDisjoint(t *testing.T) {
	// A(2i) = A(2i-1): writes even elements, reads odd ones — the GCD
	// (integer) reasoning must prove independence.
	prog := parse(t, `
program p
param N
real A(2 * N)
do i = 1, N
  A(2 * i) = A(2 * i - 1) + 1.0
end do
end
`)
	loop, outer := loopAt(t, prog, 0)
	ctx := NewContext(prog, 1)
	if deps := ctx.CarriedByLoop(loop, outer); len(deps) != 0 {
		t.Errorf("even/odd accesses should be independent, got %v", deps)
	}
}

func TestOuterLoopFixedIteration(t *testing.T) {
	// Within one iteration of k, the inner i loop writes A(i,k) and
	// reads A(i,k-1): no dependence carried by i.
	prog := parse(t, `
program p
param N, M
real A(N, M)
do k = 2, M
  do i = 1, N
    A(i, k) = A(i, k - 1) + 1.0
  end do
end do
end
`)
	inner, outer := loopAt(t, prog, 0, 0)
	if len(outer) != 1 || outer[0].Index != "k" {
		t.Fatalf("outer = %v", outer)
	}
	ctx := NewContext(prog, 1)
	if deps := ctx.CarriedByLoop(inner, outer); len(deps) != 0 {
		t.Errorf("i-loop should carry nothing, got %v", deps)
	}
	// But the k loop carries the flow dependence.
	kloop, kouter := loopAt(t, prog, 0)
	deps := ctx.CarriedByLoop(kloop, kouter)
	if len(deps) == 0 {
		t.Error("k-loop should carry a flow dependence")
	}
}

func TestTriangularTransposeIndependent(t *testing.T) {
	// do i = 1, N; do j = 1, i-1: A(i,j) = A(j,i). Writes touch the
	// strict lower triangle, reads the strict upper triangle — disjoint,
	// so the exact test must prove independence despite the transpose.
	prog := parse(t, `
program p
param N
real A(N, N)
do i = 1, N
  do j = 1, i - 1
    A(i, j) = A(j, i) + 1.0
  end do
end do
end
`)
	iloop, outer := loopAt(t, prog, 0)
	ctx := NewContext(prog, 1)
	if deps := ctx.CarriedByLoop(iloop, outer); len(deps) != 0 {
		t.Errorf("disjoint triangles should be independent, got %v", deps)
	}
}

func TestTriangularCarriedRecurrence(t *testing.T) {
	// Triangular bounds with a real carried dependence on i.
	prog := parse(t, `
program p
param N
real A(N, N)
do i = 2, N
  do j = 1, i - 1
    A(i, j) = A(i - 1, j) + 1.0
  end do
end do
end
`)
	iloop, outer := loopAt(t, prog, 0)
	ctx := NewContext(prog, 1)
	deps := ctx.CarriedByLoop(iloop, outer)
	hasFlow := false
	for _, d := range deps {
		if d.Kind == Flow && d.Exact {
			hasFlow = true
		}
	}
	if !hasFlow {
		t.Errorf("triangular recurrence should carry an exact flow dep, got %v", deps)
	}
}

func TestNonAffineConservative(t *testing.T) {
	prog := parse(t, `
program p
param N
real A(N), X(N)
do i = 1, N
  A(i) = A(i) * A(i)
end do
do i = 1, N
  X(i) = 1.0
end do
end
`)
	// Make a synthetic non-affine access: A(i*i) via direct IR surgery.
	loop := prog.Body[0].(*ir.Loop)
	asg := loop.Body[0].(*ir.Assign)
	asg.LHS.Subs[0] = &ir.Bin{Op: ir.Mul, L: ir.NewRef("i"), R: ir.NewRef("i")}
	ctx := NewContext(prog, 1)
	deps := ctx.CarriedByLoop(loop, nil)
	if len(deps) == 0 {
		t.Fatal("non-affine subscript should be conservatively dependent")
	}
	for _, d := range deps {
		if d.Exact {
			t.Errorf("non-affine dep marked exact: %v", d)
		}
	}
}

func TestDirections(t *testing.T) {
	prog := parse(t, `
program p
param N
real A(N)
do i = 2, N - 1
  A(i) = A(i - 1) + A(i + 1)
end do
end
`)
	loop, outer := loopAt(t, prog, 0)
	ctx := NewContext(prog, 1)
	accs := CollectArrayAccesses(loop.Body, nil)
	// accs: write A(i), read A(i-1), read A(i+1) (order per walker).
	var w, rm, rp Access
	for _, a := range accs {
		switch {
		case a.Write:
			w = a
		case ir.ExprString(a.Ref) == "A(i - 1)":
			rm = a
		case ir.ExprString(a.Ref) == "A(i + 1)":
			rp = a
		}
	}
	if w.Ref == nil || rm.Ref == nil || rp.Ref == nil {
		t.Fatalf("accesses not found: %v", accs)
	}
	// Write at ia, read A(i-1) at a later ib: equal element iff
	// ia = ib - 1, so the carried pair is feasible.
	lt := func(a, b Access) bool {
		res, exact := ctx.carriedPair(loop, outer, a, b)
		if !exact {
			t.Errorf("%s→%s: answer not exact", ir.ExprString(a.Ref), ir.ExprString(b.Ref))
		}
		return res.MayHold()
	}
	if !lt(w, rm) {
		t.Error("w→A(i-1) at a later iteration infeasible; want feasible")
	}
	// Write at ia, read A(i+1) at ib: ia = ib + 1, never a later ib.
	if lt(w, rp) {
		t.Error("w→A(i+1) at a later iteration feasible; want infeasible")
	}
	// Write vs itself: same element only in the same iteration.
	if lt(w, w) {
		t.Error("w→w at a later iteration feasible; want infeasible")
	}
}

func TestCollectArrayAccesses(t *testing.T) {
	prog := parse(t, `
program p
param N
real A(N), B(N)
do i = 1, N
  if i > 1 then
    B(i) = A(B(i)) + 1.0
  end if
end do
end
`)
	accs := CollectArrayAccesses(prog.Body, nil)
	var writes, reads int
	for _, a := range accs {
		if a.Write {
			writes++
			if len(a.Loops) != 1 || a.Loops[0].Index != "i" {
				t.Errorf("write loop chain = %v", a.Loops)
			}
		} else {
			reads++
		}
	}
	if writes != 1 {
		t.Errorf("writes = %d, want 1", writes)
	}
	// Reads: A(B(i)) and the inner B(i) subscript read.
	if reads != 2 {
		t.Errorf("reads = %d, want 2", reads)
	}
}

func TestKindString(t *testing.T) {
	if Flow.String() != "flow" || Anti.String() != "anti" || Output.String() != "output" {
		t.Error("Kind strings wrong")
	}
}

func TestScalarSubscriptConservative(t *testing.T) {
	// Subscript uses a runtime scalar: must be conservative.
	prog := parse(t, `
program p
param N
real A(N), s
do i = 1, N
  A(i) = A(i) + s
end do
end
`)
	loop := prog.Body[0].(*ir.Loop)
	asg := loop.Body[0].(*ir.Assign)
	// Rewrite read subscript to A(s)-like non-affine: A(i) -> A(i) with
	// subscript s is invalid (s is float), so instead test bounds:
	// replace loop Hi with a scalar reference.
	_ = asg
	loop.Hi = ir.NewRef("s")
	ctx := NewContext(prog, 1)
	deps := ctx.CarriedByLoop(loop, nil)
	if len(deps) == 0 {
		t.Fatal("non-affine loop bound should force conservative dependence")
	}
	for _, d := range deps {
		if d.Exact {
			t.Errorf("conservative dep marked exact: %v", d)
		}
	}
}
