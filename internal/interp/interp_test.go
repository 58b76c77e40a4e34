package interp

import (
	"math"
	"repro/internal/ir"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/parser"
)

func run(t *testing.T, src string, params map[string]int64) *State {
	t.Helper()
	prog := mustParse(src)
	st, err := Run(prog, params)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return st
}

func TestRunSimpleLoop(t *testing.T) {
	st := run(t, `
program fill
param N
real A(N)
parallel do i = 1, N
  A(i) = 2.0 * i
end do
end
`, map[string]int64{"N": 5})
	a := st.Array("A")
	for i := int64(1); i <= 5; i++ {
		off, _ := a.Offset([]int64{i})
		if got := a.Data[off]; got != float64(2*i) {
			t.Errorf("A(%d) = %v, want %v", i, got, 2*i)
		}
	}
}

func TestRun2DRowMajor(t *testing.T) {
	st := run(t, `
program grid
param N, M
real A(N, M)
do i = 1, N
  do j = 1, M
    A(i, j) = 10.0 * i + j
  end do
end do
end
`, map[string]int64{"N": 3, "M": 4})
	a := st.Array("A")
	if len(a.Data) != 12 {
		t.Fatalf("len = %d", len(a.Data))
	}
	off, err := a.Offset([]int64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Data[off] != 23 {
		t.Errorf("A(2,3) = %v, want 23", a.Data[off])
	}
}

func TestRunConditionalAndScalars(t *testing.T) {
	st := run(t, `
program cond
param N
real A(N), s
do i = 1, N
  if i == 1 .or. i == N then
    A(i) = 0.0
  else
    A(i) = 1.0
  end if
end do
s = A(1) + A(2) + A(N)
end
`, map[string]int64{"N": 4})
	if got := st.Scalars["s"]; got != 1 {
		t.Errorf("s = %v, want 1", got)
	}
}

func TestRunReductionPattern(t *testing.T) {
	st := run(t, `
program red
param N
real A(N), s
do i = 1, N
  A(i) = 1.0 * i
end do
s = 0.0
do i = 1, N
  s = s + A(i)
end do
end
`, map[string]int64{"N": 10})
	if got := st.Scalars["s"]; got != 55 {
		t.Errorf("s = %v, want 55", got)
	}
}

func TestRunIntrinsics(t *testing.T) {
	st := run(t, `
program intr
real s, t, u
s = sqrt(9.0)
t = max(2.0, min(5.0, 3.0))
u = abs(-2.5) + mod(7.0, 4.0)
end
`, nil)
	if st.Scalars["s"] != 3 || st.Scalars["t"] != 3 || st.Scalars["u"] != 5.5 {
		t.Errorf("s,t,u = %v,%v,%v", st.Scalars["s"], st.Scalars["t"], st.Scalars["u"])
	}
}

func TestRunZeroTripLoop(t *testing.T) {
	st := run(t, `
program zt
param N
real A(N), s
s = 7.0
do i = 2, 1
  s = 0.0
end do
A(1) = s
end
`, map[string]int64{"N": 1})
	if st.Scalars["s"] != 7 {
		t.Errorf("zero-trip loop executed: s = %v", st.Scalars["s"])
	}
}

func TestRunLoopBoundExpressions(t *testing.T) {
	st := run(t, `
program bexpr
param N
real A(2 * N), s
do i = N / 2, 2 * N - 1
  A(i) = 1.0
end do
s = A(N / 2) + A(2 * N - 1)
end
`, map[string]int64{"N": 8})
	if st.Scalars["s"] != 2 {
		t.Errorf("s = %v, want 2", st.Scalars["s"])
	}
}

func TestOutOfBoundsDetected(t *testing.T) {
	prog := mustParse(`
program oob
param N
real A(N)
do i = 1, N + 1
  A(i) = 0.0
end do
end
`)
	_, err := Run(prog, map[string]int64{"N": 3})
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("err = %v, want out-of-bounds", err)
	}
}

func TestMissingParam(t *testing.T) {
	prog := mustParse("program p\nparam N\nreal A(N)\nA(1) = 1.0\nend\n")
	if _, err := Run(prog, nil); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("err = %v", err)
	}
}

func TestNonPositiveExtent(t *testing.T) {
	prog := mustParse("program p\nparam N\nreal A(N)\nA(1) = 1.0\nend\n")
	if _, err := Run(prog, map[string]int64{"N": 0}); err == nil || !strings.Contains(err.Error(), "must be positive") {
		t.Fatalf("err = %v", err)
	}
}

func TestSeedDeterministic(t *testing.T) {
	prog := mustParse("program p\nparam N\nreal A(N), s\nA(1) = A(2)\nend\n")
	s1, err := NewState(prog, map[string]int64{"N": 64})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewState(prog, map[string]int64{"N": 64})
	s1.SeedDeterministic()
	s2.SeedDeterministic()
	a1, a2 := s1.Array("A"), s2.Array("A")
	for i := range a1.Data {
		if a1.Data[i] != a2.Data[i] {
			t.Fatalf("seed not deterministic at %d", i)
		}
		if a1.Data[i] <= 0 || a1.Data[i] >= 1 {
			t.Fatalf("seed value %v out of (0,1)", a1.Data[i])
		}
	}
	if s1.MaxAbsDiff(s2) != 0 {
		t.Error("MaxAbsDiff of identical states != 0")
	}
	// Largest difference is the scalar: |0 - 96| = 96.
	a2.Data[0] += 5
	s2.Scalars["s"] = 96
	if d := s1.MaxAbsDiff(s2); d != 96 {
		t.Errorf("MaxAbsDiff = %v, want 96", d)
	}
}

func TestMaxAbsDiffShapeMismatch(t *testing.T) {
	p1 := mustParse("program p\nparam N\nreal A(N)\nA(1) = 1.0\nend\n")
	s1, _ := NewState(p1, map[string]int64{"N": 2})
	s2, _ := NewState(p1, map[string]int64{"N": 3})
	if !math.IsInf(s1.MaxAbsDiff(s2), 1) {
		t.Error("shape mismatch should yield +Inf")
	}
}

func TestChecksumChanges(t *testing.T) {
	st := run(t, "program p\nparam N\nreal A(N)\nA(1) = 1.0\nend\n", map[string]int64{"N": 4})
	before := st.Checksum()
	st.Array("A").Data[2] += 10
	if st.Checksum() == before {
		t.Error("checksum did not change")
	}
}

func TestIntDivisionFloors(t *testing.T) {
	// (1 - 4) / 2 must floor to -2 to stay consistent with the affine
	// machinery's floorDiv.
	st := run(t, `
program fd
param N
real A(N), s
do i = (1 - 4) / 2 + 3, N
  s = s + 1.0
end do
end
`, map[string]int64{"N": 3})
	if st.Scalars["s"] != 3 { // loop from 1 to 3
		t.Errorf("s = %v, want 3", st.Scalars["s"])
	}
}

func TestEnvStmtCount(t *testing.T) {
	prog := mustParse(`
program counted
param N
real A(N)
do i = 1, N
  A(i) = 1.0
end do
end
`)
	st, err := NewState(prog, map[string]int64{"N": 7})
	if err != nil {
		t.Fatal(err)
	}
	st.SeedDeterministic()
	env := NewEnv(st)
	if err := execStmts(env, prog.Body); err != nil {
		t.Fatal(err)
	}
	if env.StmtCount != 7 {
		t.Errorf("StmtCount = %d, want 7", env.StmtCount)
	}
}

// Property: for random (N, k) the quadratic-formula kernel computes the same
// thing the direct Go expression computes.
func TestQuickArithmeticAgreement(t *testing.T) {
	prog := mustParse(`
program quad
param N
real A(N), B(N)
parallel do i = 1, N
  B(i) = 0.5 * A(i) * A(i) - 2.0 * A(i) + 1.0
end do
end
`)
	f := func(seed uint8) bool {
		n := int64(seed%32) + 1
		st, err := Run(prog, map[string]int64{"N": n})
		if err != nil {
			return false
		}
		a, b := st.Array("A"), st.Array("B")
		for i := range a.Data {
			x := a.Data[i]
			want := 0.5*x*x - 2.0*x + 1.0
			if b.Data[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// mustParse parses src and panics on error: the sources are the tests' own
// constants or suite kernels.
func mustParse(src string) *ir.Program {
	prog, err := parser.Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}
