package comm

import (
	"strings"
	"testing"

	"repro/internal/decomp"
	"repro/internal/deps"
	"repro/internal/ir"
	"repro/internal/parallel"
	"repro/internal/parser"
	"repro/internal/region"
	"repro/internal/remarks"
)

// setup runs the full front half of the pipeline on src.
func setup(t *testing.T, src string) (*ir.Program, *Analyzer) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ctx := deps.NewContext(prog, 1)
	parallel.Parallelize(ctx)
	plan := decomp.Build(prog, decomp.Block)
	info := region.Classify(prog, plan.Wavefront)
	return prog, New(ctx, plan, info)
}

func stmt(prog *ir.Program, path ...int) []ir.Stmt {
	stmts := prog.Body
	var s ir.Stmt
	for _, i := range path {
		s = stmts[i]
		if l, ok := s.(*ir.Loop); ok {
			stmts = l.Body
		}
	}
	return []ir.Stmt{s}
}

func TestAlignedCopyNoComm(t *testing.T) {
	prog, a := setup(t, `
program p
param N
real A(N), B(N), C(N)
do i = 1, N
  B(i) = A(i) + 1.0
end do
do i = 1, N
  C(i) = B(i) * 2.0
end do
end
`)
	v := a.Between(stmt(prog, 0), stmt(prog, 1), nil, nil)
	if v.Class != ClassNone {
		t.Errorf("aligned copy: %v, want none\npairs: %v", v, v.Pairs)
	}
	if !v.Exact {
		t.Error("verdict should be exact")
	}
}

func TestStencilNeighbor(t *testing.T) {
	prog, a := setup(t, `
program p
param N
real A(N), B(N)
do i = 2, N - 1
  B(i) = A(i - 1) + A(i + 1)
end do
do i = 2, N - 1
  A(i) = B(i - 1) + B(i + 1)
end do
end
`)
	v := a.Between(stmt(prog, 0), stmt(prog, 1), nil, nil)
	if v.Class != ClassNeighbor {
		t.Fatalf("stencil: %v, want neighbor\npairs: %v", v, v.Pairs)
	}
	if !v.WaitLower || !v.WaitUpper {
		t.Errorf("both directions expected: lower=%v upper=%v", v.WaitLower, v.WaitUpper)
	}
}

func TestShiftOneDirection(t *testing.T) {
	// B produced at i, consumed at i+1's owner only (read B(i-1)):
	// consumer is above producer → wait lower only.
	prog, a := setup(t, `
program p
param N
real A(N), B(N)
do i = 1, N
  B(i) = 1.0 * i
end do
do i = 2, N
  A(i) = B(i - 1)
end do
end
`)
	v := a.Between(stmt(prog, 0), stmt(prog, 1), nil, nil)
	if v.Class != ClassNeighbor {
		t.Fatalf("shift: %v, want neighbor\npairs: %v", v, v.Pairs)
	}
	if !v.WaitLower || v.WaitUpper {
		t.Errorf("directions: lower=%v upper=%v, want true,false", v.WaitLower, v.WaitUpper)
	}
}

func TestMasterWriteBroadcastCounter(t *testing.T) {
	prog, a := setup(t, `
program p
param N
real A(N), B(N)
A(1) = 3.0
do i = 1, N
  B(i) = A(1) + 1.0
end do
end
`)
	v := a.Between(stmt(prog, 0), stmt(prog, 1), nil, nil)
	if v.Class != ClassCounter {
		t.Errorf("master broadcast: %v, want counter\npairs: %v", v, v.Pairs)
	}
}

func TestGuardedScalarBroadcast(t *testing.T) {
	prog, a := setup(t, `
program p
param N
real A(N), s
s = A(1) * 2.0
do i = 1, N
  A(i) = A(i) + s
end do
end
`)
	// s = A(1)*2 reads an array → guarded (master). The parallel loop
	// reads s on every worker → single-producer counter.
	v := a.Between(stmt(prog, 0), stmt(prog, 1), nil, nil)
	if v.Class != ClassCounter {
		t.Errorf("scalar broadcast: %v, want counter\npairs: %v", v, v.Pairs)
	}
}

func TestReductionToReplicatedBarrier(t *testing.T) {
	prog, a := setup(t, `
program p
param N
real A(N), s, alpha
do i = 1, N
  s = s + A(i)
end do
alpha = s * 2.0
end
`)
	v := a.Between(stmt(prog, 0), stmt(prog, 1), nil, nil)
	if v.Class != ClassBarrier {
		t.Errorf("reduction fan-in: %v, want barrier\npairs: %v", v, v.Pairs)
	}
}

func TestTransposeBarrier(t *testing.T) {
	prog, a := setup(t, `
program p
param N
real A(N, N), B(N, N)
do i = 1, N
  do j = 1, N
    B(i, j) = 1.0 * i + j
  end do
end do
do i = 1, N
  do j = 1, N
    A(i, j) = B(j, i)
  end do
end do
end
`)
	v := a.Between(stmt(prog, 0), stmt(prog, 1), nil, nil)
	if v.Class != ClassBarrier {
		t.Errorf("transpose: %v, want barrier\npairs: %v", v, v.Pairs)
	}
}

func TestIncomparableSpacesBarrier(t *testing.T) {
	prog, a := setup(t, `
program p
param N, M
real A(N), B(M)
do i = 1, N
  A(i) = 1.0
end do
do i = 1, M
  B(i) = A(1) + 1.0
end do
end
`)
	v := a.Between(stmt(prog, 0), stmt(prog, 1), nil, nil)
	// Producer space N, consumer space M: incomparable. A(1) is only
	// written by worker 0 though — producer side has x = i, element 1 ⇒
	// single producer... but spaces differ so we fall to barrier
	// conservatively.
	if v.Class == ClassNone {
		t.Errorf("incomparable spaces must not report none: %v", v)
	}
	if v.Exact {
		t.Error("incomparable verdict should be inexact")
	}
}

func TestCarriedStencilNeighbor(t *testing.T) {
	prog, a := setup(t, `
program p
param N, T
real A(N), B(N)
do k = 1, T
  do i = 2, N - 1
    B(i) = A(i - 1) + A(i + 1)
  end do
  do i = 2, N - 1
    A(i) = B(i)
  end do
end do
end
`)
	kloop := prog.Body[0].(*ir.Loop)
	g1 := []ir.Stmt{kloop.Body[0]}
	g2 := []ir.Stmt{kloop.Body[1]}
	// Loop-independent: the B flow B(i)→B(i) is owner-local, but g1
	// reads A(i±1) that g2 overwrites — a cross-processor anti
	// dependence at block boundaries → neighbor.
	v := a.Between(g1, g2, []*ir.Loop{kloop}, nil)
	if v.Class != ClassNeighbor {
		t.Errorf("g1→g2 same iteration: %v, want neighbor (anti on A)\npairs: %v", v, v.Pairs)
	}
	for _, p := range v.Pairs {
		if strings.Contains(p, "B:") {
			t.Errorf("B flow should be owner-local, but contributed: %v", p)
		}
	}
	// Carried A flow: A(i) written in g2 at iteration k, read at k+1 by
	// g1 at i±1 → neighbor.
	v = a.Between(g2, g1, nil, kloop)
	if v.Class != ClassNeighbor {
		t.Errorf("carried A flow: %v, want neighbor\npairs: %v", v, v.Pairs)
	}
	if !v.WaitLower || !v.WaitUpper {
		t.Errorf("carried stencil needs both directions: %v", v)
	}
}

func TestCarriedSameElementNoComm(t *testing.T) {
	// A(i) written each iteration k, read as A(i) next iteration: same
	// owner ⇒ no communication across k.
	prog, a := setup(t, `
program p
param N, T
real A(N)
do k = 1, T
  do i = 1, N
    A(i) = A(i) + 1.0
  end do
end do
end
`)
	kloop := prog.Body[0].(*ir.Loop)
	g := []ir.Stmt{kloop.Body[0]}
	v := a.Between(g, g, nil, kloop)
	if v.Class != ClassNone {
		t.Errorf("accumulate in place: %v, want none\npairs: %v", v, v.Pairs)
	}
}

func TestBroadcastRowCounterCarried(t *testing.T) {
	// tred2-like shape: within iteration k, a guarded statement computes
	// a pivot value (depending on the previous iteration, so the k loop
	// stays serial), then a parallel loop consumes it. The producer is
	// the single master → counter (the paper's broadcast case).
	prog, a := setup(t, `
program p
param N
real A(N, N), D(N)
do k = 2, N
  D(k) = A(1, k - 1) * 2.0
  parallel do i = 1, N
    A(i, k) = A(i, k) + D(k)
  end do
end do
end
`)
	kloop := prog.Body[0].(*ir.Loop)
	g1 := []ir.Stmt{kloop.Body[0]}
	g2 := []ir.Stmt{kloop.Body[1]}
	v := a.Between(g1, g2, []*ir.Loop{kloop}, nil)
	if v.Class != ClassCounter {
		t.Errorf("pivot broadcast: %v, want counter\npairs: %v", v, v.Pairs)
	}
}

func TestReadReadIgnored(t *testing.T) {
	prog, a := setup(t, `
program p
param N
real A(N), B(N), C(N)
do i = 1, N
  B(i) = A(i)
end do
do i = 1, N
  C(i) = A(i)
end do
end
`)
	v := a.Between(stmt(prog, 0), stmt(prog, 1), nil, nil)
	if v.Class != ClassNone {
		t.Errorf("read-read on A must not synchronize: %v\npairs: %v", v, v.Pairs)
	}
}

func TestOutputDepSameOwnerNoComm(t *testing.T) {
	prog, a := setup(t, `
program p
param N
real A(N)
do i = 1, N
  A(i) = 1.0
end do
do i = 1, N
  A(i) = 2.0
end do
end
`)
	v := a.Between(stmt(prog, 0), stmt(prog, 1), nil, nil)
	if v.Class != ClassNone {
		t.Errorf("same-owner rewrites: %v, want none\npairs: %v", v, v.Pairs)
	}
}

func TestVerdictStringAndCombine(t *testing.T) {
	v := Verdict{Class: ClassNeighbor, WaitLower: true, Exact: true}
	if got := v.String(); !strings.Contains(got, "neighbor(lower)") {
		t.Errorf("String = %q", got)
	}
	w := combine(v, Verdict{Class: ClassCounter, Exact: false})
	if w.Class != ClassCounter || w.Exact || !w.WaitLower {
		t.Errorf("combine = %+v", w)
	}
	if ClassNone.String() != "none" || ClassBarrier.String() != "barrier" {
		t.Error("class strings")
	}
}

func TestPrivateScalarInvisible(t *testing.T) {
	prog, a := setup(t, `
program p
param N
real A(N), B(N), t
do i = 1, N
  t = A(i) * 2.0
  B(i) = t + 1.0
end do
do i = 1, N
  A(i) = B(i)
end do
end
`)
	v := a.Between(stmt(prog, 0), stmt(prog, 1), nil, nil)
	if v.Class != ClassNone {
		t.Errorf("private temp should not induce comm: %v\npairs: %v", v, v.Pairs)
	}
}

func TestReplicatedScalarNoComm(t *testing.T) {
	prog, a := setup(t, `
program p
param N
real A(N), c
c = 2.0
do i = 1, N
  A(i) = A(i) * c
end do
end
`)
	v := a.Between(stmt(prog, 0), stmt(prog, 1), nil, nil)
	if v.Class != ClassNone {
		t.Errorf("replicated constant: %v, want none\npairs: %v", v, v.Pairs)
	}
}

// TestReductionOutputKeepsLoopBottom pins the ordering the executor's
// reduction fold relies on: the last worker to arrive folds every rank's
// partial without waiting, so the schedule must order the next instance's
// update after this one's. A reduction update is a write by every active
// worker, so in a time loop that accumulates s with no reader of s, the
// output dependence on s alone makes the loop-bottom site a barrier — the
// stencil's own flows need only neighbor sync.
func TestReductionOutputKeepsLoopBottom(t *testing.T) {
	prog, a := setup(t, `
program p
param N, T
real A(N), B(N), X(N), s
do k = 1, T
  do i = 2, N - 1
    B(i) = 0.5 * (A(i - 1) + A(i + 1))
  end do
  do i = 2, N - 1
    A(i) = B(i)
    s = s + X(i)
  end do
end do
end
`)
	kloop := prog.Body[0].(*ir.Loop)
	g1, g2 := []ir.Stmt{kloop.Body[0]}, []ir.Stmt{kloop.Body[1]}
	if v := a.Between(g2, g1, nil, kloop); v.Class != ClassNeighbor {
		t.Errorf("carried stencil flows: %v, want neighbor\npairs: %v", v, v.Pairs)
	}
	v := a.Between(g2, g2, nil, kloop)
	if v.Class != ClassBarrier {
		t.Fatalf("carried reduction update: %v, want barrier\npairs: %v", v, v.Pairs)
	}
	cited := false
	for _, d := range v.Deps {
		output := d.Kind == "output" && d.Var == "s"
		cited = cited || output
		if output != (d.Class == remarks.PrimBarrier) {
			t.Errorf("%v: only the output dependence on s needs a barrier", d)
		}
	}
	if !cited {
		t.Errorf("the remark cites no output dependence on s: %v", v.Deps)
	}
}
