package decomp

import (
	"testing"

	"repro/internal/deps"
	"repro/internal/ir"
	"repro/internal/linear"
	"repro/internal/parallel"
	"repro/internal/parser"
)

func buildPlan(t *testing.T, src string, kind Kind) (*ir.Program, *Plan) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	parallel.Parallelize(deps.NewContext(prog, 1))
	return prog, Build(prog, kind)
}

func TestOwnerComputesPlacement(t *testing.T) {
	prog, plan := buildPlan(t, `
program p
param N
real A(N), B(N)
do i = 1, N
  B(i) = A(i) * 2.0
end do
end
`, Block)
	loop := prog.Body[0].(*ir.Loop)
	pl := plan.Placements[loop]
	if pl == nil {
		t.Fatal("no placement for parallel loop")
	}
	if pl.ByIteration() {
		t.Fatalf("expected owner-computes placement, got %v", pl)
	}
	if pl.Array != "B" || pl.Dim != 0 {
		t.Errorf("placement = %v", pl)
	}
	if !pl.Offset.IsConstant() || pl.Offset.Const != 0 {
		t.Errorf("offset = %v, want 0", pl.Offset)
	}
	if pl.Space.Key != "N" {
		t.Errorf("space key = %q, want N", pl.Space.Key)
	}
}

func TestShiftedOffsetPlacement(t *testing.T) {
	prog, plan := buildPlan(t, `
program p
param N
real A(N)
do i = 1, N - 1
  A(i + 1) = 2.0
end do
end
`, Block)
	loop := prog.Body[0].(*ir.Loop)
	pl := plan.Placements[loop]
	if pl.ByIteration() || pl.Offset.Const != 1 {
		t.Errorf("placement = %v, want offset 1", pl)
	}
}

func TestTwoDimPlacementPicksLoopDim(t *testing.T) {
	prog, plan := buildPlan(t, `
program p
param N, M
real A(N, M)
do i = 1, N
  do j = 1, M
    A(i, j) = 1.0
  end do
end do
end
`, Block)
	loop := prog.Body[0].(*ir.Loop)
	pl := plan.Placements[loop]
	if pl.ByIteration() || pl.Dim != 0 {
		t.Errorf("placement = %v, want dim 0 (i)", pl)
	}
	if pl.Space.Key != "N" {
		t.Errorf("space = %q", pl.Space.Key)
	}
}

func TestInnerParallelLoopPlacement(t *testing.T) {
	// Parallel j loop inside sequential k loop writing A(j,k): offset 0
	// on dim 0, no outer index in the placement.
	prog, plan := buildPlan(t, `
program p
param N
real A(N, N)
do k = 2, N
  do j = 1, N
    A(j, k) = A(j, k - 1) + 1.0
  end do
end do
end
`, Block)
	kloop := prog.Body[0].(*ir.Loop)
	jloop := kloop.Body[0].(*ir.Loop)
	if !jloop.Parallel {
		t.Fatal("j loop should be parallel")
	}
	pl := plan.Placements[jloop]
	if pl.ByIteration() || pl.Dim != 0 || len(pl.OuterIndices) != 0 {
		t.Errorf("placement = %v", pl)
	}
}

func TestOuterIndexOffsetRecorded(t *testing.T) {
	// A(i + k) = ... : offset depends on outer index k.
	prog, plan := buildPlan(t, `
program p
param N
real A(2 * N)
do k = 1, N
  parallel do i = 1, N
    A(i + k) = 1.0
  end do
end do
end
`, Block)
	kloop := prog.Body[0].(*ir.Loop)
	iloop := kloop.Body[0].(*ir.Loop)
	pl := plan.Placements[iloop]
	if pl.ByIteration() {
		t.Fatalf("placement = %v", pl)
	}
	if len(pl.OuterIndices) != 1 || pl.OuterIndices[0] != "k" {
		t.Errorf("OuterIndices = %v, want [k]", pl.OuterIndices)
	}
	if pl.Offset.Coeff(linear.Loop("k")) != 1 {
		t.Errorf("offset = %v", pl.Offset)
	}
}

func TestReductionLoopReadAffinity(t *testing.T) {
	// Loop writes only a scalar reduction: placement follows the read
	// references, keeping the loop aligned with the producers of A.
	prog, plan := buildPlan(t, `
program p
param N
real A(N), s
do i = 2, N
  s = s + A(i)
end do
end
`, Block)
	loop := prog.Body[0].(*ir.Loop)
	if !loop.Parallel {
		t.Fatal("reduction loop should be parallel")
	}
	pl := plan.Placements[loop]
	if pl.ByIteration() || pl.Array != "A" || pl.Space.Key != "N" {
		t.Fatalf("expected read-affinity placement on A over N, got %v", pl)
	}
	if !pl.Offset.IsConstant() || pl.Offset.Const != 0 {
		t.Errorf("offset = %v, want 0", pl.Offset)
	}
}

func TestByIterationFallback(t *testing.T) {
	// No array references at all: fall back to the iteration space.
	prog, plan := buildPlan(t, `
program p
param N
real A(N), s
do i = 2, N
  s = s + 1.0
end do
A(1) = s
end
`, Block)
	loop := prog.Body[0].(*ir.Loop)
	if !loop.Parallel {
		t.Fatal("reduction loop should be parallel")
	}
	pl := plan.Placements[loop]
	if !pl.ByIteration() {
		t.Fatalf("expected by-iteration placement, got %v", pl)
	}
	// extent = N - 2 + 1 = N - 1; offset = 1 - lo = -1.
	if pl.Space.Key != "N - 1" {
		t.Errorf("space = %q, want \"N - 1\"", pl.Space.Key)
	}
	if !pl.Offset.IsConstant() || pl.Offset.Const != -1 {
		t.Errorf("offset = %v, want -1", pl.Offset)
	}
}

func TestStrideTwoNotOwnerComputes(t *testing.T) {
	// A(2i): coefficient 2 on the loop index — no clean owner mapping.
	prog, plan := buildPlan(t, `
program p
param N
real A(2 * N)
do i = 1, N
  A(2 * i) = 1.0
end do
end
`, Block)
	loop := prog.Body[0].(*ir.Loop)
	pl := plan.Placements[loop]
	if !pl.ByIteration() {
		t.Errorf("stride-2 write should fall back to by-iteration, got %v", pl)
	}
}

func TestPlanString(t *testing.T) {
	prog, plan := buildPlan(t, `
program p
param N
real A(N)
do i = 1, N
  A(i) = 1.0
end do
end
`, Cyclic)
	pl := plan.Placements[prog.Body[0].(*ir.Loop)]
	if got := pl.String(); got == "" || plan.Kind != Cyclic || pl.Kind != Cyclic {
		t.Errorf("cyclic plan: %v / %q", plan.Kind, got)
	}
}

func TestBlockSize(t *testing.T) {
	cases := []struct {
		ext  int64
		p    int
		want int64
	}{
		{100, 4, 25}, {101, 4, 26}, {3, 4, 1}, {1, 1, 1}, {7, 2, 4},
	}
	for _, c := range cases {
		if got := BlockSize(c.ext, c.p); got != c.want {
			t.Errorf("BlockSize(%d,%d) = %d, want %d", c.ext, c.p, got, c.want)
		}
	}
}

func TestOwnerOfBlock(t *testing.T) {
	// extent 10, 4 procs → B=3: blocks [1-3][4-6][7-9][10].
	for _, c := range []struct {
		x    int64
		want int
	}{{1, 0}, {3, 0}, {4, 1}, {9, 2}, {10, 3}} {
		if got := OwnerOf(Block, c.x, 10, 4); got != c.want {
			t.Errorf("OwnerOf(block,%d) = %d, want %d", c.x, got, c.want)
		}
	}
	// Clamping.
	if OwnerOf(Block, 0, 10, 4) != 0 || OwnerOf(Block, 99, 10, 4) != 3 {
		t.Error("clamping failed")
	}
}

func TestOwnerOfCyclic(t *testing.T) {
	for _, c := range []struct {
		x    int64
		want int
	}{{1, 0}, {2, 1}, {4, 3}, {5, 0}, {10, 1}} {
		if got := OwnerOf(Cyclic, c.x, 10, 4); got != c.want {
			t.Errorf("OwnerOf(cyclic,%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestIterSlicePartitionExact checks that, for a grid of parameters, the
// per-worker slices exactly tile [lo,hi]: every iteration appears exactly
// once across workers, and each lands on its owner.
func TestIterSlicePartitionExact(t *testing.T) {
	for _, kind := range []Kind{Block, Cyclic} {
		for _, nproc := range []int{1, 2, 3, 4, 7, 8} {
			for _, ext := range []int64{1, 5, 16, 17, 31} {
				for _, off := range []int64{0, 1, -1, 3} {
					lo := int64(1) - off
					hi := ext - off
					seen := map[int64]int{}
					for w := 0; w < nproc; w++ {
						start, end, step := IterSlice(kind, lo, hi, off, ext, w, nproc)
						for i := start; i <= end; i += step {
							seen[i]++
							if own := OwnerOf(kind, i+off, ext, nproc); own != w {
								t.Fatalf("%v P=%d ext=%d off=%d: iter %d on worker %d, owner %d",
									kind, nproc, ext, off, i, w, own)
							}
						}
					}
					for i := lo; i <= hi; i++ {
						if seen[i] != 1 {
							t.Fatalf("%v P=%d ext=%d off=%d: iter %d seen %d times",
								kind, nproc, ext, off, i, seen[i])
						}
					}
				}
			}
		}
	}
}

func TestIterSliceEmptyForIdleWorker(t *testing.T) {
	// extent 2, 4 procs, block: workers 2,3 own nothing.
	start, end, _ := IterSlice(Block, 1, 2, 0, 2, 3, 4)
	if start <= end {
		t.Errorf("worker 3 should be idle, got [%d,%d]", start, end)
	}
	if got := countActive(Block, 1, 2, 0, 2, 4); got != 2 {
		t.Errorf("active workers = %d, want 2", got)
	}
}

func TestCountActiveCyclic(t *testing.T) {
	if got := countActive(Cyclic, 1, 3, 0, 10, 4); got != 3 {
		t.Errorf("active workers = %d, want 3", got)
	}
	if got := countActive(Cyclic, 1, 10, 0, 10, 4); got != 4 {
		t.Errorf("active workers = %d, want 4", got)
	}
}

// countActive returns how many workers IterSlice gives at least one
// iteration of [lo, hi].
func countActive(kind Kind, lo, hi, off, extent int64, nproc int) int {
	n := 0
	for w := 0; w < nproc; w++ {
		start, end, step := IterSlice(kind, lo, hi, off, extent, w, nproc)
		if step > 0 && start <= end {
			n++
		}
	}
	return n
}

func TestKindString(t *testing.T) {
	if Block.String() != "block" || Cyclic.String() != "cyclic" {
		t.Error("Kind strings wrong")
	}
}
