// Package cursortest is the program table behind the hoisted-range-check
// tests: internal/compile runs every case on the closure program, on the
// per-access (instrumented) lowering and on the interpreter; internal/exec
// runs the same cases on a team against the reference engine. It holds data
// only, so both test packages can import it.
package cursortest

import "fmt"

// Case is one program with what the closure program must do with it.
type Case struct {
	Name   string
	Src    string
	Params map[string]int64
	// Fault is the exact error text of the sequential closure run ("": the
	// run succeeds). The interpreter's starts with it: it appends the legal
	// range to a bounds fault.
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
	{
		// A gather loop long enough for the row form whose index array holds
		// a non-integer at a middle iteration: the entry check refuses the
		// row form, and the scalar cursor form faults there, after the
		// stores of the iterations before it.
		Name: "gather-non-integer-at-a-middle-iteration",
		Src: `
program gnonint
param N
real A(N), B(N), IDX(N)
do i = 1, N
  IDX(i) = N - i + 1
end do
IDX(20) = 2.5
do i = 1, N
  B(i) = A(IDX(i)) * 0.5 + B(i)
end do
end
`,
		Params: map[string]int64{"N": 40},
		Fault:  "10:12: array IDX element = 2.5 is not an integer subscript value",
	},
	{
		// The same for a scatter whose index leaves the array.
		Name: "scatter-out-of-range-at-a-middle-iteration",
		Src: `
program gscatout
param N
real A(N), B(N), IDX(N)
do i = 1, N
  IDX(i) = N - i + 1
end do
IDX(20) = 0.0
do i = 1, N
  A(IDX(i)) = B(i) * 0.5
end do
end
`,
		Params: map[string]int64{"N": 40},
		Fault:  "10:3: array A: subscript 1 = 0 out of bounds",
	},
	{
		// A nest whose corner check fails at the last outer iteration only:
		// the outer entry runs row by row, the rows before it on their
		// cursors, and the last one faults in the checked body at its first
		// iteration (the index as a value keeps the body out of the row form).
		Name: "nest-corner-out-at-the-last-outer-iteration",
		Src: `
program nestlast
param N
real A(N, N), B(N, N)
do i = 1, N
  do j = 1, N
    A(i + 1, j) = B(i, j) * j
  end do
end do
end
`,
		Params:   map[string]int64{"N": 6},
		Fault:    "7:5: array A: subscript 1 = 7 out of bounds",
		Fallback: true,
	},
	{
		// The outer index's reach times its coefficient, 2^62 * 4, wraps to 0:
		// the nest's check must see the overflow, and row 3 faults.
		Name: "nest-hostile-outer-trip-count",
		Src: `
program hostile2
param N, M
real A(N, N)
do i = 1, M
  do j = 1, N
    A(4 * i, j) = 1.0 + j
  end do
end do
end
`,
		Params:   map[string]int64{"N": 10, "M": 1<<62 + 1},
		Fault:    "7:5: array A: subscript 1 = 12 out of bounds",
		Fallback: true,
	},
	{
		// An index guard admits every other iteration; C ends before the 20th
		// admitted one of 40. The entry check over the admitted progression
		// fails, the guarded body runs per access over it and faults there,
		// after the 19 stores before it.
		Name: "guarded-body-faults-at-the-20th-admitted-iteration",
		Src: `
program guardfault
param N
real A(2 * N), C(N - 2)
do i = 1, 2 * N
  if mod(i, 2) == 0 then
    C(i) = A(i) * 0.5 + 1.0
  end if
end do
end
`,
		Params:   map[string]int64{"N": 40},
		Fault:    "7:5: array C: subscript 1 = 40 out of bounds",
		Fallback: true,
	},
	{
		// Past 2^53 float64 rounds: i == E holds at i = 2^53 and at
		// i = 2^53 + 1 = E, both of which round to 2^53. The entry and E lie
		// past the range in which integers and the interpreter's floats
		// agree, so it runs the guarded body per access, a fallback.
		Name: "index-guard-past-2^53",
		Src: `
program near53
param M, E
real A(8)
do i = M, M + 7
  if i == E then
    A(i - M + 1) = A(i - M + 1) + 1.0
  end if
end do
end
`,
		Params:   map[string]int64{"M": 1<<53 - 3, "E": 1<<53 + 1},
		Fallback: true,
	},
	{
		// The entry is small but the bound is not: i > E holds for every i,
		// and the guarded body runs per access, a fallback, rather than the
		// bound reaching past the offsets an admitted interval is cut with.
		Name: "index-guard-bound-past-2^53",
		Src: `
program far
param N, E
real A(N)
do i = 1, N
  if i > E then
    A(i) = A(i) + 1.0
  end if
end do
end
`,
		Params:   map[string]int64{"N": 9, "E": -(1 << 62)},
		Fallback: true,
	},
	{
		// A CSR row loop (spmvcsr's) whose row pointer holds a non-integer at
		// row 6: reading row 5's upper bound faults. The nest driver, which
		// reads the bounds of its rows before it checks them, takes that
		// fault back and runs the slice row by row, which raises it after
		// rows 1 to 4 and row 5's y(5) = 0.0.
		Name: "csr-non-integer-row-pointer-at-row-6",
		Src: `
program csrnonint
param N
real rp(N + 1), cl(4 * N), v(4 * N), x(N), y(N)
rp(1) = 1.0
do kk = 2, N + 1
  rp(kk) = rp(kk - 1) + 2.0
end do
do kk = 1, 4 * N
  cl(kk) = mod(kk * 5, N) + 1.0
end do
rp(6) = 9.5
parallel do i = 1, N
  y(i) = 0.0
  do k = rp(i), rp(i + 1) - 1
    y(i) = y(i) + v(k) * x(cl(k))
  end do
end do
end
`,
		Params: map[string]int64{"N": 12},
		Fault:  "15:17: array rp element = 9.5 is not an integer subscript value",
	},
	{
		// Row 5 runs past the nonzeros: the box of the rows' ranges fails its
		// check, the slice runs row by row, and row 5's own check fails.
		Name: "csr-row-pointer-past-the-nonzeros-at-row-6",
		Src: `
program csrpast
param N
real rp(N + 1), cl(4 * N), v(4 * N), x(N), y(N)
rp(1) = 1.0
do kk = 2, N + 1
  rp(kk) = rp(kk - 1) + 2.0
end do
do kk = 1, 4 * N
  cl(kk) = mod(kk * 5, N) + 1.0
end do
rp(6) = 4 * N + 3.0
parallel do i = 1, N
  y(i) = 0.0
  do k = rp(i), rp(i + 1) - 1
    y(i) = y(i) + v(k) * x(cl(k))
  end do
end do
end
`,
		Params:   map[string]int64{"N": 12},
		Fault:    "16:19: array v: subscript 1 = 49 out of bounds",
		Fallback: true,
	},
	{
		// The row pointer is one element short: the last row's upper bound
		// reads past it.
		Name: "csr-row-pointer-read-past-its-array",
		Src: `
program csrshort
param N
real rp(N), cl(4 * N), v(4 * N), x(N), y(N)
rp(1) = 1.0
do kk = 2, N
  rp(kk) = rp(kk - 1) + 2.0
end do
do kk = 1, 4 * N
  cl(kk) = mod(kk * 5, N) + 1.0
end do
parallel do i = 1, N
  y(i) = 0.0
  do k = rp(i), rp(i + 1) - 1
    y(i) = y(i) + v(k) * x(cl(k))
  end do
end do
end
`,
		Params: map[string]int64{"N": 12},
		Fault:  "14:17: array rp: subscript 1 = 13 out of bounds",
	},
	{
		// Every bound and cursor is in range, but a gathered element is not:
		// row 6's entry faults inside the nest driver, after its first
		// iteration's store.
		Name: "csr-gather-out-of-range-in-row-6",
		Src: `
program csrgather
param N
real rp(N + 1), cl(4 * N), v(4 * N), x(N), y(N)
rp(1) = 1.0
do kk = 2, N + 1
  rp(kk) = rp(kk - 1) + 2.0
end do
do kk = 1, 4 * N
  cl(kk) = mod(kk * 5, N) + 1.0
end do
cl(12) = N + 1.0
parallel do i = 1, N
  y(i) = 0.0
  do k = rp(i), rp(i + 1) - 1
    y(i) = y(i) + v(k) * x(cl(k))
  end do
end do
end
`,
		Params: map[string]int64{"N": 12},
		Fault:  "16:26: array x: subscript 1 = 13 out of bounds",
	},
	// The loop memos (forms.rangeFn): a time loop whose gather loop reuses
	// its first entry's checks (a second loop keeps the time loop from being
	// a nest, whose driver checks once per entry of its own). The first entry finds a bad index element,
	// so it runs the scalar cursor form, which faults at i = 20, after the
	// stores of i < 20, and no entry after it is reached.
	{
		Name: "memo-bad-index-at-the-first-entry",
		Src: `
program memobad
param N, T
real A(N), B(N), C(N), P(N)
do i = 1, N
  P(i) = i
end do
P(20) = 0.0
do t = 1, T
  do i = 1, N
    B(i) = A(P(i)) * 0.5 + B(i)
  end do
  do i = 1, N
    C(i) = B(i) * 0.5
  end do
end do
end
`,
		Params: map[string]int64{"N": 64, "T": 3},
		Fault:  "11:12: array A: subscript 1 = 0 out of bounds",
	},
	{
		// The element goes bad inside the time loop, after the first step's
		// entries have passed their check: the store keeps the gather loop's
		// checks from being reused, and the second step faults at i = 20.
		Name: "memo-index-goes-bad-inside-the-time-loop",
		Src: `
program memolate
param N, T
real A(N), B(N), P(N)
do i = 1, N
  P(i) = i
end do
do t = 1, T
  do i = 1, N
    B(i) = A(P(i)) * 0.5 + B(i)
  end do
  P(20) = 2.5
end do
end
`,
		Params: map[string]int64{"N": 64, "T": 3},
		Fault:  "10:14: array P element = 2.5 is not an integer subscript value",
	},
}

// RowCase is one program for the row form of innermost loops: a single
// innermost loop (or one nest) behind a few planted elements.
type RowCase struct {
	Name   string
	Src    string
	Params map[string]int64
	// Row says which form the loop's entries take in a sequential run: the
	// row form, or (false) the scalar cursor form, because no row form is
	// built or because the entry's cursors do not prove it legal.
	Row bool
}

// RowCases is the legality table: what the rules of rowBody.run must accept
// and what they must refuse. Every case must also agree with the interpreter
// bit for bit whatever form runs.
var RowCases = []RowCase{
	{
		Name: "carried-dependence",
		Src: `
program carried
param N
real A(N)
do i = 2, N
  A(i) = A(i - 1) + 1.0
end do
end
`,
		Params: map[string]int64{"N": 40},
	},
	{
		// Same element read and stored: legal, but the right-hand side
		// mentions A, so the chunk goes through a temporary.
		Name: "update-in-place",
		Src: `
program inplace
param N
real A(N), B(N)
do i = 1, N
  A(i) = (B(i) + 1.0) * A(i)
end do
end
`,
		Params: map[string]int64{"N": 300},
		Row:    true,
	},
	{
		// Statement 2 of iteration i reads what statement 1 of iteration
		// i + 1 stores: statement-at-a-time over a chunk would read it late.
		Name: "anti-dependence-across-statements",
		Src: `
program anti
param N
real A(N), B(N + 1), C(N)
do i = 1, N
  B(i) = A(i) * 2.0
  C(i) = B(i + 1)
end do
end
`,
		Params: map[string]int64{"N": 50},
	},
	{
		Name: "flow-within-an-iteration",
		Src: `
program flow
param N
real A(N), B(N), C(N)
do i = 1, N
  B(i) = A(i) * 2.0
  C(i) = B(i) + A(i)
end do
end
`,
		Params: map[string]int64{"N": 50},
		Row:    true,
	},
	{
		// Column k against column k - 1 of a row-major array: equal strides
		// (M), bases one element apart, never a whole stride.
		Name: "column-neighbour",
		Src: `
program column
param N, M
real A(N, M), D(M)
do k = 2, M
  D(k) = A(1, k - 1) * 0.5 + 0.001
  do i = 1, N
    A(i, k) = 0.5 * A(i, k) + 0.1 * D(k) * A(i, k - 1)
  end do
end do
end
`,
		Params: map[string]int64{"N": 21, "M": 9},
		Row:    true,
	},
	{
		// Equal strides, bases a whole number of strides apart — as many as
		// the entry runs iterations: out of reach.
		Name: "distance-equals-trip-count",
		Src: `
program dist
param M
real A(2 * M)
do i = 1, M
  A(i) = A(i + M) + 1.0
end do
end
`,
		Params: map[string]int64{"M": 33},
		Row:    true,
	},
	{
		Name: "distance-inside-trip-count",
		Src: `
program distin
param M
real A(2 * M)
do i = 1, M
  A(i + M - 1) = A(i) + 1.0
end do
end
`,
		Params: map[string]int64{"M": 33},
	},
	{
		Name: "strided-distance-outside",
		Src: `
program sdist
param M
real A(4 * M + 2)
do i = 1, M
  A(2 * i) = A(2 * i + 2 * M) * 0.5
end do
end
`,
		Params: map[string]int64{"M": 17},
		Row:    true,
	},
	{
		// Odd elements against even ones: equal strides, base difference not
		// a multiple.
		Name: "strided-interleaved",
		Src: `
program inter
param M
real A(2 * M + 1)
do i = 1, M
  A(2 * i) = A(2 * i + 1) + A(2 * i - 1)
end do
end
`,
		Params: map[string]int64{"M": 300},
		Row:    true,
	},
	{
		Name: "negative-coefficient",
		Src: `
program neg
param N
real A(N), B(N)
do i = 1, N
  A(N - i + 1) = B(i) - A(N - i + 1)
end do
end
`,
		Params: map[string]int64{"N": 270},
		Row:    true,
	},
	{
		// Opposite strides over one span: the reversal reads what it stored.
		Name: "reversal-in-place",
		Src: `
program rev
param N
real A(N)
do i = 1, N
  A(i) = A(N - i + 1) + 1.0
end do
end
`,
		Params: map[string]int64{"N": 30},
	},
	{
		Name: "invariant-read-inside-the-stored-span",
		Src: `
program invin
param N
real A(N)
do i = 1, N
  A(i) = A(i) + A(3)
end do
end
`,
		Params: map[string]int64{"N": 30},
	},
	{
		// lulike's shape: the pivot row and the multiplier column lie
		// outside what the entry stores.
		Name: "invariant-read-outside-the-stored-span",
		Src: `
program invout
param N
real A(N, N)
do k = 1, N - 1
  do i = k + 1, N
    A(i, k) = A(i, k) / (A(k, k) + 2.0)
  end do
  do i = k + 1, N
    do j = k + 1, N
      A(i, j) = A(i, j) - A(i, k) * A(k, j)
    end do
  end do
end do
end
`,
		Params: map[string]int64{"N": 12},
		Row:    true,
	},
	{
		// A store that does not move and is no reduction: the last iteration
		// wins, and no row form is built.
		Name: "invariant-store",
		Src: `
program invst
param N
real A(N), D(2)
do i = 1, N
  D(1) = A(i) * 2.0
end do
end
`,
		Params: map[string]int64{"N": 20},
	},
	{
		Name: "scalar-reduction",
		Src: `
program red
param N
real A(N), B(N), s
s = 0.5
do i = 1, N
  s = s + A(i) * B(i)
end do
end
`,
		Params: map[string]int64{"N": 700},
		Row:    true,
	},
	{
		Name: "array-element-reduction",
		Src: `
program mm
param N, M
real A(N, M), B(M, N), C(N, N)
do i = 1, N
  do j = 1, N
    C(i, j) = 0.0
    do k = 1, M
      C(i, j) = C(i, j) + A(i, k) * B(k, j)
    end do
  end do
end do
end
`,
		Params: map[string]int64{"N": 5, "M": 300},
		Row:    true,
	},
	{
		// Two sums into one scalar interleave per iteration; per chunk they
		// would not.
		Name: "two-reductions-into-one-scalar",
		Src: `
program red2
param N
real A(N), B(N), s
do i = 1, N
  s = s + A(i)
  s = s + B(i)
end do
end
`,
		Params: map[string]int64{"N": 40},
	},
	{
		Name: "scalar-read-the-body-assigns",
		Src: `
program prefix
param N
real A(N), B(N), s
do i = 1, N
  s = s + A(i)
  B(i) = s
end do
end
`,
		Params: map[string]int64{"N": 40},
	},
	{
		Name: "private-temporary",
		Src: `
program tmp
param N
real A(N), B(N), c
do i = 1, N
  c = A(i) * 0.3
  B(i) = c * 0.5
end do
end
`,
		Params: map[string]int64{"N": 40},
	},
	{
		Name: "index-as-a-value",
		Src: `
program idx
param N
real A(N), B(N)
do i = 1, N
  A(i) = B(i) + i
end do
end
`,
		Params: map[string]int64{"N": 40},
	},
	{
		Name: "outer-index-parameter-and-scalar-as-values",
		Src: `
program outer
param N
real A(N, N), B(N, N), c
c = 0.75
do i = 1, N
  do j = 1, N
    A(i, j) = B(i, j) * i - c / N + B(j, i)
  end do
end do
end
`,
		Params: map[string]int64{"N": 19},
		Row:    true,
	},
	{
		Name: "conditional",
		Src: `
program cond
param N
real A(N), B(N)
do i = 1, N
  if B(i) > 0.5 then
    A(i) = B(i)
  end if
end do
end
`,
		Params: map[string]int64{"N": 40},
	},
	{
		Name: "comparison-as-a-value",
		Src: `
program cmp
param N
real A(N), B(N)
do i = 1, N
  A(i) = (B(i) > 0.5) + 1.0
end do
end
`,
		Params: map[string]int64{"N": 40},
	},
	{
		Name: "intrinsics",
		Src: `
program intr
param N
real A(N), B(N), c
c = 0.6
do i = 1, N
  B(i) = sqrt(abs(A(i))) + max(A(i), 0.75) + pow(A(i), 2.0) + mod(A(i), 0.3) + min(c, A(i)) - exp(-A(i)) * log(A(i) + 1.0) + sin(A(i)) / cos(c)
end do
end
`,
		Params: map[string]int64{"N": 260},
		Row:    true,
	},
	{
		// NaN, both infinities and both zeros through every operator, in
		// both operand positions, against a scalar and against a vector. No
		// + or * here meets two NaNs of different sign: which of the two
		// survives is the instruction's first operand, and that is the Go
		// compiler's choice of register in the scalar closures and in the
		// slice loops alike, not something either form can fix.
		Name: "special-values",
		Src: `
program special
param N
real A(N), B(N), C(N), D(N), E(N), F(N), z, s
z = -0.0
A(1) = 0.0 / 0.0
A(2) = 1.0 / 0.0
A(3) = -1.0 / 0.0
A(4) = -0.0
A(5) = 0.0
B(1) = 1.0 / 0.0
B(3) = 0.0 / 0.0
B(4) = 0.0
B(5) = -0.0
do i = 1, N
  C(i) = -A(i) * z + (z - B(i))
  D(i) = A(i) * B(i) - B(i) / A(i)
  E(i) = 0.0 * A(i) + A(i) / z - (A(i) - A(i))
  F(i) = -(A(i) + B(i)) * -B(i)
  s = s + B(i)
end do
end
`,
		Params: map[string]int64{"N": 12},
		Row:    true,
	},
	{
		// A scatter through an index with repeats: stored in iteration order,
		// chunk after chunk, so the last writer of each element wins as in
		// the scalar form.
		Name: "scatter-with-a-repeated-index",
		Src: `
program scatrep
param N
real A(N), B(N), M(N)
do i = 1, N
  M(i) = mod(i, 7) + 1.0
end do
do i = 1, N
  A(M(i)) = B(i) * 2.0 + 1.0
end do
end
`,
		Params: map[string]int64{"N": 300},
		Row:    true,
	},
	{
		// A read-modify-write through a permutation: every iteration touches
		// an element of its own, which the entry's stamps prove.
		Name: "read-modify-write-through-a-permutation",
		Src: `
program rmwperm
param N
real A(N), B(N), M(N)
do i = 1, N
  M(i) = N - i + 1
end do
do i = 1, N
  A(M(i)) = A(M(i)) * 0.5 + B(i)
end do
end
`,
		Params: map[string]int64{"N": 300},
		Row:    true,
	},
	{
		// The same through a map with one repeat inside a chunk: iteration 7
		// must read what iteration 5 stored, so the entry check refuses.
		Name: "read-modify-write-through-a-map-with-one-repeat",
		Src: `
program rmwrep
param N
real A(N), B(N), M(N)
do i = 1, N
  M(i) = N - i + 1
end do
M(5) = M(7)
do i = 1, N
  A(M(i)) = A(M(i)) * 0.5 + B(i)
end do
end
`,
		Params: map[string]int64{"N": 300},
	},
	{
		// The gather reads the reduction's own target, so a chunk would read
		// y(c(k)) before the fold stores y(i): no row form (rule ii).
		Name: "gather-from-the-reduction-target",
		Src: `
program yself
param N, M
real y(N), v(N * M), c(N * M)
do k = 1, N * M
  c(k) = mod(k, N) + 1
end do
do i = 1, N
  do k = (i - 1) * M + 1, i * M
    y(i) = y(i) + v(k) * y(c(k))
  end do
end do
end
`,
		Params: map[string]int64{"N": 10, "M": 30},
	},
	{
		// The loop stores the index array it gathers through, so the elements
		// an entry would check are not those the body reads: no row form
		// (rule i).
		Name: "index-array-stored-in-the-loop",
		Src: `
program idxst
param N
real A(N), B(N), M(N)
do i = 1, N
  M(i) = N - i + 1
end do
do i = 1, N
  M(i) = N - M(i) + 1.0
  B(i) = A(M(i)) * 0.5
end do
end
`,
		Params: map[string]int64{"N": 300},
	},
	{
		// An index that does not move: no row form (rule iv).
		Name: "invariant-index-gather",
		Src: `
program invidx
param N
real A(N), B(N), C(N), M(N)
do i = 1, N
  M(i) = N - i + 1
end do
do i = 1, N
  B(i) = A(M(3)) + C(i)
end do
end
`,
		Params: map[string]int64{"N": 300},
	},
	{
		// A nest in which one array is stored and read with a different
		// delta per outer iteration (N and 1): legality is decided per row,
		// and rows 1..M, whose spans meet, are refused.
		Name: "nest-transpose-decides-per-row",
		Src: `
program transp
param N, M
real A(N, N)
do i = 1, N
  do j = 1, M
    A(i, j) = A(j, i) * 0.5 + 1.0
  end do
end do
end
`,
		Params: map[string]int64{"N": 20, "M": 8},
		Row:    true,
	},
	{
		// Different deltas again, and the first row's spans are apart: only
		// per row does legality see that row 8, stored by i = 13, reads A(8, 7)
		// after its iteration 7 stored it, which a chunk would read too early.
		Name: "nest-flow-in-a-later-row",
		Src: `
program laterflow
param N, M
real A(N, N)
do i = 1, N - 1
  do j = 1, M
    A(N - i + 1, j) = A(j, N - i) + 1.0
  end do
end do
end
`,
		Params: map[string]int64{"N": 20, "M": 8},
		Row:    true,
	},
	{
		// The same delta for the store and the read of the row before:
		// legal once for every row of an outer entry.
		Name: "nest-row-above-decides-once",
		Src: `
program above
param N
real B(N, N)
do i = 2, N
  do j = 1, N
    B(i, j) = B(i - 1, j) * 0.5 + 0.25
  end do
end do
end
`,
		Params: map[string]int64{"N": 19},
		Row:    true,
	},
	{
		// An empty inner range: the outer entry runs its rows one by one,
		// none of which runs an iteration or checks its out-of-range cursor.
		Name: "nest-empty-inner-range",
		Src: `
program nestempty
param N
real A(N, N)
do i = 1, N
  do j = 5, 4
    A(i, j + 100) = 1.0
  end do
end do
end
`,
		Params: map[string]int64{"N": 8},
	},
	{
		// Inner bounds outside the affine grammar: the nest driver reads
		// every row's bounds before its one check, and asks legality per row.
		Name: "nest-inner-bound-not-affine",
		Src: `
program halfrow
param N
real A(N, N), B(N, N)
do i = 1, N
  do j = 1, N / 2
    A(i, j) = B(i, 2 * j) + B(i, 2 * j - 1)
  end do
end do
end
`,
		Params: map[string]int64{"N": 18},
		Row:    true,
	},
	{
		// Inner bounds that move with the outer index: one check over the
		// box of the rows' ranges, legality per row.
		Name: "nest-inner-bound-uses-the-outer-index",
		Src: `
program tri
param N
real A(N, N), B(N, N)
do i = 1, N
  do j = i, N
    A(i, j) = B(j, i) - 0.5 * B(i, j)
  end do
end do
end
`,
		Params: map[string]int64{"N": 17},
		Row:    true,
	},
	{
		// A parallel outer loop: on a team every worker's slice is a nest
		// entry, a stepped one under cyclic placement (delta times P).
		Name: "nest-outer-slices-on-a-team",
		Src: `
program nestpar
param N, M
real A(N, M), B(N, M)
do i = 1, N
  do j = 2, M - 1
    A(i, j) = 0.25 * (B(i, j - 1) + B(i, j + 1)) + 0.5 * B(i, j)
  end do
end do
end
`,
		Params: map[string]int64{"N": 23, "M": 14},
		Row:    true,
	},
	{
		// Red-black relaxation: each half-sweep's parity guard admits every
		// other element, a progression of step 2 (on a cyclic team of two, a
		// worker's slice holds one parity only, and the other worker's
		// progression is empty).
		Name: "red-black-both-parities",
		Src: `
program rb
param N, T
real A(N)
do k = 1, T
  parallel do i = 2, N - 1
    if mod(i, 2) == 0 then
      A(i) = 0.5 * (A(i - 1) + A(i + 1))
    end if
  end do
  parallel do i = 2, N - 1
    if mod(i, 2) == 1 then
      A(i) = 0.5 * (A(i - 1) + A(i + 1))
    end if
  end do
end do
end
`,
		Params: map[string]int64{"N": 41, "T": 3},
		Row:    true,
	},
	{
		// The guard keeps the body's neighbours in range: over 1..N the
		// entry check would fail at both ends, over 2..N-1 it passes.
		Name: "interior-guard-keeps-the-ends-in-range",
		Src: `
program interior
param N
real A(N), B(N)
do i = 1, N
  if i >= 2 .and. i <= N - 1 then
    B(i) = 0.5 * (A(i - 1) + A(i + 1))
  end if
end do
end
`,
		Params: map[string]int64{"N": 40},
		Row:    true,
	},
	{
		// A 2-D red-black sweep: the guarded inner loop keeps the per-entry
		// driver, since a nest's rows would run its then statements over all
		// of its range.
		Name: "red-black-nest",
		Src: `
program rb2d
param N
real A(N, N)
do j = 1, N
  do i = 2, N - 1
    if mod(i, 2) == 0 then
      A(j, i) = 0.5 * (A(j, i - 1) + A(j, i + 1)) + j
    end if
  end do
end do
end
`,
		Params: map[string]int64{"N": 12},
		Row:    true,
	},
	{
		// On a cyclic team of three a slice steps by 3, which the congruence
		// i ≡ 1 (mod 4) turns into a progression of step 12 (or none).
		Name: "congruence-with-the-slice-step",
		Src: `
program cyc3
param N
real A(N), B(N)
parallel do i = 1, N
  if mod(i, 4) == 1 .and. i > 4 then
    A(i) = B(i) * 2.0 + A(i)
  end if
end do
end
`,
		Params: map[string]int64{"N": 61},
		Row:    true,
	},
	{
		// The bound's float evaluation, which the interpreter compares with,
		// rounds below 2^53: (M + 1) * 3 is past 2^54 and loses its low bits,
		// so e is 2^53 - 4 where its affine form M + 3 is 2^53 - 3. The guard
		// must admit i = 2^53 - 4.
		Name: "index-guard-bound-rounds-in-float64",
		Src: `
program rounds
param M
real A(4)
do i = M + 1, M + 4
  if i == (M + 1) * 3 - 2 * M then
    A(i - M) = A(i - M) + 1.0
  end if
end do
end
`,
		Params: map[string]int64{"M": 1<<53 - 6},
		Row:    true,
	},
	{
		// CSR rows of 0, 5 and 10 nonzeros, the first and the last row empty:
		// one check per slice over the box of the non-empty rows, which skip
		// the empty ones, and the 10-long rows run in row form.
		Name: "csr-empty-rows",
		Src: `
program csrempty
param N
real rp(N + 1), cl(10 * N), v(10 * N), x(N), y(N)
rp(1) = 1.0
rp(2) = 1.0
do kk = 3, N
  rp(kk) = rp(kk - 1) + mod(kk, 3) * 5.0
end do
rp(N + 1) = rp(N)
do kk = 1, 10 * N
  cl(kk) = mod(kk * 7, N) + 1.0
end do
parallel do i = 1, N
  y(i) = 0.0
  do k = rp(i), rp(i + 1) - 1
    y(i) = y(i) + v(k) * x(cl(k))
  end do
end do
end
`,
		Params: map[string]int64{"N": 29},
		Row:    true,
	},
	{
		// Rows of 9 nonzeros but for row 5, whose row pointer drops below
		// row 4's: row 5 is empty and row 6 runs over rows 4 and 5's
		// nonzeros again.
		Name: "csr-decreasing-row-pointer",
		Src: `
program csrdown
param N
real rp(N + 1), cl(9 * N), v(9 * N), x(N), y(N)
rp(1) = 1.0
do kk = 2, N + 1
  rp(kk) = rp(kk - 1) + 9.0
end do
rp(6) = rp(5) - 4.0
do kk = 1, 9 * N
  cl(kk) = mod(kk * 7, N) + 1.0
end do
parallel do i = 1, N
  y(i) = 0.0
  do k = rp(i), rp(i + 1) - 1
    y(i) = y(i) + v(k) * x(cl(k))
  end do
end do
end
`,
		Params: map[string]int64{"N": 23},
		Row:    true,
	},
	{
		// Two assignments before the row loop, run once per row before its
		// entry, the second read by it.
		Name: "csr-two-prefix-statements",
		Src: `
program csrpre
param N
real rp(N + 1), cl(9 * N), v(9 * N), x(N), y(N), z(N)
rp(1) = 1.0
do kk = 2, N + 1
  rp(kk) = rp(kk - 1) + 9.0
end do
do kk = 1, 9 * N
  cl(kk) = mod(kk * 7, N) + 1.0
end do
parallel do i = 1, N
  y(i) = 0.0
  z(i) = x(i) * 0.5 + y(i)
  do k = rp(i), rp(i + 1) - 1
    y(i) = y(i) + (v(k) * x(cl(k)) - z(i))
  end do
end do
end
`,
		Params: map[string]int64{"N": 23},
		Row:    true,
	},
	// The loop memos (forms.rangeFn). A read-back scatter through P takes the
	// row form while P is a permutation and the scalar form once it holds a
	// repeat; each case makes the repeat with a store the memo's scope rule
	// must see, and an entry that reused a verdict from before the store would
	// run rows over the repeat and leave the wrong bits.
	{
		Name: "memo-index-stored-by-a-parallel-step",
		Src: `
program memopar
param N, T
real A(N), B(N), P(N)
do i = 1, N
  P(i) = N - i + 1.0
end do
do t = 1, T
  do i = 1, N
    A(P(i)) = A(P(i)) * 0.5 + B(i)
  end do
  do i = 1, N
    P(i) = max(P(i) - 1.0, 1.0)
  end do
end do
end
`,
		Params: map[string]int64{"N": 64, "T": 3},
		Row:    true,
	},
	{
		Name: "memo-index-stored-by-a-guarded-statement",
		Src: `
program memoguard
param N, T
real A(N), B(N), P(N)
do i = 1, N
  P(i) = N - i + 1.0
end do
do t = 1, T
  do i = 1, N
    A(P(i)) = A(P(i)) * 0.5 + B(i)
  end do
  P(N) = P(1)
end do
end
`,
		Params: map[string]int64{"N": 64, "T": 3},
		Row:    true,
	},
	{
		Name: "memo-index-stored-in-a-nested-sequential-loop",
		Src: `
program memonest
param N, T
real A(N), B(N), P(N)
do i = 1, N
  P(i) = N - i + 1.0
end do
do t = 1, T
  do i = 1, N
    A(P(i)) = A(P(i)) * 0.5 + B(i)
  end do
  do k = 1, 2
    do j = 1, t
      P(j) = P(j + 1)
    end do
  end do
end do
end
`,
		Params: map[string]int64{"N": 64, "T": 3},
		Row:    true,
	},
	{
		// The store is outside the time loop, between two of its
		// executions: the second must not reuse the first one's verdict.
		Name: "memo-index-stored-between-executions-of-the-time-loop",
		Src: `
program memobetween
param N, T
real A(N), B(N), C(N), P(N)
do i = 1, N
  P(i) = N - i + 1.0
end do
do r = 1, 2
  do t = 1, T
    do i = 1, N
      A(P(i)) = A(P(i)) * 0.5 + B(i)
    end do
    do i = 1, N
      C(i) = B(i) * 0.5
    end do
  end do
  P(N) = P(1)
end do
end
`,
		Params: map[string]int64{"N": 64, "T": 3},
		Row:    true,
	},
	{
		// Slices that change with t: each entry's start differs from the
		// last one's, so none reuses a memo; C's subscript moves with t too.
		Name: "memo-slice-bounds-vary-with-t",
		Src: `
program memovary
param N, T
real A(N), B(N), C(N), P(N)
do i = 1, N
  P(i) = N - i + 1.0
end do
do t = 1, T
  do i = t, N
    A(P(i)) = A(P(i)) * 0.5 + B(i)
  end do
  do i = 1, N - t
    C(i) = C(i) * 0.5 + A(i + t)
  end do
end do
end
`,
		Params: map[string]int64{"N": 64, "T": 4},
		Row:    true,
	},
}

func init() {
	// mod(i, 3) == c over a range that crosses zero: mod keeps i's sign, so c
	// > 0 admits only positive i, c < 0 only negative ones, c = 0 both, and
	// |c| = 3 nothing.
	for c := -3; c <= 3; c++ {
		RowCases = append(RowCases, RowCase{
			Name: fmt.Sprintf("mod-3-equals-%d-across-zero", c),
			Src: fmt.Sprintf(`
program mod3
param N
real A(N), B(N)
do i = -7, 7
  if mod(i, 3) == %d then
    A(i + 8) = B(i + 8) * 2.0 + 1.0
  end if
end do
end
`, c),
			Params: map[string]int64{"N": 15},
			Row:    c > -3 && c < 3,
		})
	}
	// i == e over 3..18 with e below the range, at its ends, inside it and
	// above it, e on either side.
	for _, e := range []struct {
		name, cond string
		e          int64
	}{
		{"below", "i == E", 1}, {"at-the-low-end", "E == i", 3}, {"inside", "N - 11 == i", 0},
		{"at-the-high-end", "i == E", 18}, {"above", "E == i", 25},
	} {
		RowCases = append(RowCases, RowCase{
			Name: "index-equals-e-" + e.name,
			Src: `
program ieq
param N, E
real A(N), B(N)
do i = 3, N - 2
  if ` + e.cond + ` then
    A(i) = B(i) + 1.0
  end if
end do
end
`,
			Params: map[string]int64{"N": 20, "E": e.e},
			Row:    e.e != 1 && e.e != 25,
		})
	}
	// The chunk's edges — one iteration, one short of a chunk, a chunk, one
	// over, several chunks and one — for chunks of 128 and of 256.
	for _, n := range []int64{1, 127, 128, 129, 255, 256, 257, 513} {
		RowCases = append(RowCases, RowCase{
			Name: fmt.Sprintf("trip-count-%d", n),
			Src: `
program trip
param N
real A(N + 2), B(N + 2), s
do i = 2, N + 1
  B(i) = 0.5 * (A(i - 1) + A(i + 1)) - 0.25 * A(i)
  s = s + A(i)
end do
end
`,
			Params: map[string]int64{"N": n},
			Row:    true,
		})
	}
}
