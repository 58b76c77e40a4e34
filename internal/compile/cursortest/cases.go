// Package cursortest is the program table behind the hoisted-range-check
// tests: internal/compile runs every case on the closure program, on the
// per-access (instrumented) lowering and on the interpreter; internal/exec
// runs the same cases on a team against the reference engine. It holds data
// only, so both test packages can import it.
package cursortest

// Case is one program with what the closure program must do with it.
type Case struct {
	Name   string
	Src    string
	Params map[string]int64
	// Fault is the exact error text of the sequential closure run ("": the
	// run succeeds). The interpreter appends the legal range to it.
	Fault string
	// Fallback says whether some loop entry must fail its hoisted check
	// and run the per-access-checked body. Every faulting affine reference
	// implies it; so does a reference that is out of range only on a path
	// never taken.
	Fallback bool
}

// Cases covers each way a cursor reference can meet the edge of its array.
var Cases = []Case{
	{
		Name: "first-iteration",
		Src: `
program first
param N
real A(N), B(N)
do i = 1, N
  B(i) = A(i - 1)
end do
end
`,
		Params:   map[string]int64{"N": 8},
		Fault:    "6:10: array A: subscript 1 = 0 out of bounds",
		Fallback: true,
	},
	{
		Name: "middle-iteration",
		Src: `
program middle
param N
real A(N), B(N)
do i = 1, N
  B(i) = 1.5
  A(2 * i) = B(i) + i
end do
end
`,
		Params:   map[string]int64{"N": 9},
		Fault:    "7:3: array A: subscript 1 = 10 out of bounds",
		Fallback: true,
	},
	{
		Name: "last-iteration",
		Src: `
program last
param N
real A(N)
do i = 1, N
  A(i + 1) = A(i) * 0.5
end do
end
`,
		Params:   map[string]int64{"N": 8},
		Fault:    "6:3: array A: subscript 1 = 9 out of bounds",
		Fallback: true,
	},
	{
		Name: "last-iteration-second-dimension",
		Src: `
program last2
param N
real A(N, N)
do i = 1, N
  do j = 1, N
    A(i, j + 1) = A(i, j) + 1.0
  end do
end do
end
`,
		Params:   map[string]int64{"N": 5},
		Fault:    "7:5: array A: subscript 2 = 6 out of bounds",
		Fallback: true,
	},
	{
		Name: "negative-coefficient",
		Src: `
program neg
param N
real A(N), B(N)
do i = 1, N
  A(N - i + 1) = B(i) + i
end do
end
`,
		Params: map[string]int64{"N": 11},
	},
	{
		Name: "negative-coefficient-out-at-first",
		Src: `
program negout
param N
real A(N), B(N)
do i = 1, N
  A(N - i + 2) = B(i)
end do
end
`,
		Params:   map[string]int64{"N": 11},
		Fault:    "6:3: array A: subscript 1 = 12 out of bounds",
		Fallback: true,
	},
	{
		// B(k, j): the loop index strides the first dimension, so the
		// stride is an extent known only at run time; C(i, j) does not
		// move at all.
		Name: "first-dimension-stride-and-invariant",
		Src: `
program mm
param N, M
real A(N, M), B(M, N), C(N, N)
do i = 1, N
  do j = 1, N
    do k = 1, M
      C(i, j) = C(i, j) + A(i, k) * B(k, j)
    end do
  end do
end do
end
`,
		Params: map[string]int64{"N": 6, "M": 4},
	},
	{
		Name: "rank-3",
		Src: `
program r3
param N, M, L
real T(N, M, L), U(N, L, M)
do i = 1, N
  do j = 1, M
    do k = 1, L
      T(i, j, k) = U(i, k, j) + T(i, M - j + 1, k) * 0.5 + k
    end do
  end do
end do
end
`,
		Params: map[string]int64{"N": 3, "M": 4, "L": 5},
	},
	{
		Name: "rank-3-out-in-the-middle-dimension",
		Src: `
program r3out
param N, M, L
real T(N, M, L)
do i = 1, N
  do j = 1, M
    do k = 1, L
      T(i, k, j) = 1.0 + k
    end do
  end do
end do
end
`,
		Params:   map[string]int64{"N": 3, "M": 4, "L": 5},
		Fault:    "8:7: array T: subscript 2 = 5 out of bounds",
		Fallback: true,
	},
	{
		Name: "empty-range",
		Src: `
program empty
param N
real A(N)
do i = 5, 4
  A(i + 100) = 1.0
end do
end
`,
		Params: map[string]int64{"N": 8},
	},
	{
		// The reference that would fault sits in a branch no iteration
		// takes: the entry check fails, the checked body never evaluates it.
		Name: "out-of-range-only-in-a-dead-branch",
		Src: `
program dead
param N
real A(N)
do i = 1, N
  if (i > N) then
    A(i + N) = 1.0
  else
    A(i) = 2.0
  end if
end do
end
`,
		Params:   map[string]int64{"N": 8},
		Fallback: true,
	},
	{
		Name: "affine-and-indirect",
		Src: `
program mixed
param N
real A(N), B(N), IDX(N)
do i = 1, N
  IDX(i) = N - i + 1
end do
do i = 1, N
  A(IDX(i)) = B(i) + A(i)
end do
end
`,
		Params: map[string]int64{"N": 9},
	},
	{
		// The affine references pass the entry check; the indirect store
		// keeps its own per-access check inside the cursor body.
		Name: "indirect-out-of-range-in-a-cursor-body",
		Src: `
program mixedout
param N
real A(N), B(N), IDX(N)
do i = 1, N
  IDX(i) = i + 1
end do
do i = 1, N
  A(IDX(i)) = B(i) + A(i)
end do
end
`,
		Params: map[string]int64{"N": 9},
		Fault:  "9:3: array A: subscript 1 = 10 out of bounds",
	},
	{
		// The gather as a read: IDX passes its hoisted check, the element it
		// holds at the last iteration does not fit B.
		Name: "gather-read-out-of-range",
		Src: `
program gatherout
param N
real A(N), B(N), IDX(N)
do i = 1, N
  IDX(i) = i + 1
end do
do i = 1, N
  A(i) = B(IDX(i)) * 0.5
end do
end
`,
		Params: map[string]int64{"N": 9},
		Fault:  "9:10: array B: subscript 1 = 10 out of bounds",
	},
	{
		// The index array itself leaves its extent: a cursor's fault, so
		// the whole entry runs the per-access-checked body.
		Name: "gather-index-fails-the-hoisted-check",
		Src: `
program gatheridx
param N
real A(N), B(N), IDX(N)
do i = 1, N
  IDX(i) = i
end do
do i = 1, N
  A(IDX(i + 1)) = B(i) + 1.0
end do
end
`,
		Params:   map[string]int64{"N": 9},
		Fault:    "9:5: array IDX: subscript 1 = 10 out of bounds",
		Fallback: true,
	},
	{
		// 4*i at the loop's last iteration is 2^64 + 4, which wraps to an
		// in-range 4: the entry check must see the overflow.
		Name: "hostile-trip-count",
		Src: `
program hostile
param N, M
real A(N)
do i = 1, M
  A(4 * i) = 1.0 + i
end do
end
`,
		Params:   map[string]int64{"N": 10, "M": 1<<62 + 1},
		Fault:    "6:3: array A: subscript 1 = 12 out of bounds",
		Fallback: true,
	},
	{
		// A serial recurrence the executor runs as a rank-order relay,
		// inside a time loop. On three workers the second one faults in the
		// first time step and the third, which owns no iteration, still
		// waits for its post in the second: a faulted worker has to keep
		// synchronizing.
		Name: "fault-inside-a-relay",
		Src: `
program relay
param N, T
real A(N), B(N)
do t = 1, T
  do i = 3, N - 2
    A(i) = 0.3 * A(i - 1) + 0.5 * B(i + 3)
  end do
end do
end
`,
		Params:   map[string]int64{"N": 5, "T": 2},
		Fault:    "7:35: array B: subscript 1 = 6 out of bounds",
		Fallback: true,
	},
}
