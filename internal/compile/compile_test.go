package compile

import (
	"math"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
)

// runBoth executes src on the reference interpreter and the closure
// backend over identically-seeded states and returns both final states
// (or both errors).
func runBoth(t *testing.T, src string, params map[string]int64) (*interp.State, error, *interp.State, error) {
	t.Helper()
	prog := mustParse(src)
	iSt, iErr := interp.Run(prog, params)

	cProg := mustParse(src) // fresh AST: Compile must not depend on shared nodes
	p, err := Compile(cProg, nil, Options{})
	if err != nil {
		return iSt, iErr, nil, err
	}
	cSt, err := interp.NewState(cProg, params)
	if err != nil {
		return iSt, iErr, nil, err
	}
	cSt.SeedDeterministic()
	cErr := p.RunSeq(cSt)
	return iSt, iErr, cSt, cErr
}

func requireBitwiseEqual(t *testing.T, a, b *interp.State) {
	t.Helper()
	for _, decl := range a.Prog.Arrays {
		av, bv := a.Array(decl.Name), b.Array(decl.Name)
		if len(av.Data) != len(bv.Data) {
			t.Fatalf("array %s: length %d vs %d", decl.Name, len(av.Data), len(bv.Data))
		}
		for i := range av.Data {
			if math.Float64bits(av.Data[i]) != math.Float64bits(bv.Data[i]) {
				t.Fatalf("array %s[%d]: interp %v closure %v", decl.Name, i, av.Data[i], bv.Data[i])
			}
		}
	}
	for name, v := range a.Scalars {
		if math.Float64bits(v) != math.Float64bits(b.Scalars[name]) {
			t.Fatalf("scalar %s: interp %v closure %v", name, v, b.Scalars[name])
		}
	}
}

func TestClosureMatchesInterp(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		params map[string]int64
	}{
		{
			name: "stencil",
			src: `
program stencil
param N, T
real A(N), B(N)
do k = 1, T
  do i = 2, N - 1
    B(i) = 0.5 * (A(i - 1) + A(i + 1))
  end do
  do i = 2, N - 1
    A(i) = B(i)
  end do
end do
end
`,
			params: map[string]int64{"N": 64, "T": 3},
		},
		{
			name: "rank2-and-scalar",
			src: `
program r2
param N
real A(N, N)
real s, t
s = 2.5
do i = 1, N
  do j = 1, N
    A(i, j) = A(i, j) * s + i - j
  end do
end do
t = A(1, 1) + A(N, N)
end
`,
			params: map[string]int64{"N": 17},
		},
		{
			name: "conditions-and-intrinsics",
			src: `
program cond
param N
real A(N), B(N)
real m
m = 0.0
do i = 1, N
  if (A(i) > 0.5 .and. i < N - 2) then
    B(i) = sqrt(abs(A(i))) + max(A(i), 0.75) + pow(A(i), 2.0)
  else
    B(i) = -A(i) + min(A(i), 0.25) + mod(A(i), 0.3)
  end if
  m = m + B(i)
end do
end
`,
			params: map[string]int64{"N": 200},
		},
		{
			name: "integer-ops-in-subscripts",
			src: `
program intops
param N
real A(N)
do i = 1, N
  A(mod(i * 3, N) + 1) = A(i) + i / 2 + exp(0.0)
end do
end
`,
			params: map[string]int64{"N": 55},
		},
		{
			name: "triangular",
			src: `
program tri
param N
real A(N, N)
do i = 1, N
  do j = 1, i - 1
    A(i, j) = A(j, i) + 1.0
  end do
end do
end
`,
			params: map[string]int64{"N": 23},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			iSt, iErr, cSt, cErr := runBoth(t, tc.src, tc.params)
			if iErr != nil || cErr != nil {
				t.Fatalf("interp err=%v closure err=%v", iErr, cErr)
			}
			requireBitwiseEqual(t, iSt, cSt)
		})
	}
}

// TestValueModMatchesInterp covers mod of integer operands in value
// context, which computes in int64: negative operands and -0 results, a zero
// divisor (NaN) and magnitudes on both sides of 2^53, where it falls back to
// math.Mod, all bit for bit against the interpreter.
func TestValueModMatchesInterp(t *testing.T) {
	const src = `
program modv
param N, L, X, Y
real A(N), B(N), C(N), D(N)
do i = L, L + N - 1
  A(i - L + 1) = mod(i, Y)
  B(i - L + 1) = mod(X, i)
  C(i - L + 1) = mod(X, Y) + mod(i, 3)
  if (mod(i, 2) == 0) then
    D(i - L + 1) = mod(3, i)
  end if
end do
end
`
	const e53 = int64(1) << 53
	xs := []int64{0, 7, -6, e53, e53 + 1, -e53, -e53 - 1, math.MaxInt64, math.MinInt64}
	ys := []int64{0, 1, -1, 2, -3, e53, e53 + 1, -e53 - 1, math.MinInt64}
	for _, x := range xs {
		for _, y := range ys {
			params := map[string]int64{"N": 11, "L": -5, "X": x, "Y": y}
			iSt, iErr, cSt, cErr := runBoth(t, src, params)
			if iErr != nil || cErr != nil {
				t.Fatalf("X=%d Y=%d: interp err=%v closure err=%v", x, y, iErr, cErr)
			}
			requireBitwiseEqual(t, iSt, cSt)
		}
	}
	for _, x := range xs {
		for _, y := range ys {
			if got, want := modInt(x, y), math.Mod(float64(x), float64(y)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("modInt(%d, %d) = %v, math.Mod = %v", x, y, got, want)
			}
		}
	}
}

func TestFaultsMirrorInterpErrors(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		params map[string]int64
		want   string // substring of the closure backend's error
	}{
		{
			name: "out-of-bounds",
			src: `
program oob
param N
real A(N)
do i = 1, N
  A(i + 1) = A(i)
end do
end
`,
			params: map[string]int64{"N": 8},
			want:   "out of bounds",
		},
		{
			name: "div-by-zero-subscript",
			src: `
program dz
param N, Z
real A(N)
do i = 1, N
  A(i / Z) = 1.0
end do
end
`,
			params: map[string]int64{"N": 8, "Z": 0},
			want:   "division by zero",
		},
		{
			name: "mod-by-zero",
			src: `
program mz
param N, Z
real A(N)
do i = 1, N
  A(mod(i, Z) + 1) = 1.0
end do
end
`,
			params: map[string]int64{"N": 8, "Z": 0},
			want:   "mod by zero",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, iErr, _, cErr := runBoth(t, tc.src, tc.params)
			if iErr == nil {
				t.Fatalf("interpreter accepted the program; fault test is vacuous")
			}
			if cErr == nil {
				t.Fatalf("closure backend missed the fault (interp: %v)", iErr)
			}
			if !strings.Contains(cErr.Error(), tc.want) {
				t.Fatalf("fault %q does not mention %q", cErr, tc.want)
			}
		})
	}
}

func TestFaultFirstWinsAndRestore(t *testing.T) {
	fr := &Frame{}
	f1 := divFault(ir.Pos{Line: 3, Col: 1})
	f2 := modFault(ir.Pos{Line: 9, Col: 9})
	mark, markVal := fr.FaultMark()
	fr.trip(f1, 0)
	fr.trip(f2, 0)
	if err := fr.Err(); err == nil || !strings.Contains(err.Error(), "3:1") {
		t.Fatalf("first fault should win, got %v", err)
	}
	fr.FaultRestore(mark, markVal)
	if !fr.Ok() || fr.Err() != nil {
		t.Fatalf("restore did not clear the probe fault")
	}
}

func TestCompileRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "unknown-name",
			src: `
program p
param N
real A(N)
do i = 1, N
  A(i) = bogus + 1.0
end do
end
`,
			want: "unknown name",
		},
		{
			name: "index-out-of-scope",
			src: `
program p
param N
real A(N), B(N)
do i = 1, N
  A(i) = 1.0
end do
B(1) = A(j)
end
`,
			want: "not an integer parameter or loop index",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := parser.Parse(tc.src)
			if err != nil {
				t.Skipf("parser already rejects this shape: %v", err)
			}
			if _, err := Compile(prog, nil, Options{}); err == nil {
				t.Fatalf("Compile accepted an unresolvable program")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
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
