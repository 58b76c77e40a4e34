// Package suite contains the benchmark programs and the experiment harness
// that regenerate the paper's evaluation (DESIGN.md §3). The kernels are
// written in the DSL and mirror the loop/communication shapes of the
// paper's standard benchmark suites: stencil relaxations (jacobi, shallow,
// tomcatv), pipelined factorizations (tred2, lu, erlebacher), reductions,
// and transposition/multi-grid patterns that defeat cheap synchronization.
package suite

import (
	"fmt"
)

// Kernel is one benchmark program with its standard input.
type Kernel struct {
	Name string
	// Shape summarizes the communication structure the kernel models.
	Shape  string
	Source string
	// Params is the standard input used for the dynamic tables.
	Params map[string]int64
	// Tol is the output comparison tolerance (0 for bitwise; reductions
	// need roundoff slack).
	Tol float64
}

// Get returns the affine kernel with the given name. It does not find the
// irregular kernels (GetIrregular): the bench holds N fixed for the
// kernels Get does not find.
func Get(name string) (Kernel, error) {
	for _, k := range Kernels() {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("suite: unknown kernel %q", name)
}

// Find returns the named kernel of either suite: the CLIs' -kernel lookup.
func Find(name string) (Kernel, error) {
	if k, err := GetIrregular(name); err == nil {
		return k, nil
	}
	return Get(name)
}

// Kernels returns the full benchmark suite in presentation order.
func Kernels() []Kernel {
	return []Kernel{
		{
			Name:  "jacobi1d",
			Shape: "1D stencil relaxation; all barriers become neighbor sync",
			Source: `
program jacobi1d
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
			Params: map[string]int64{"N": 4096, "T": 10},
		},
		{
			Name:  "jacobi2d",
			Shape: "2D 5-point stencil; row-block distribution, neighbor sync",
			Source: `
program jacobi2d
param N, T
real A(N, N), B(N, N)
do k = 1, T
  do i = 2, N - 1
    do j = 2, N - 1
      B(i, j) = 0.25 * (A(i - 1, j) + A(i + 1, j) + A(i, j - 1) + A(i, j + 1))
    end do
  end do
  do i = 2, N - 1
    do j = 2, N - 1
      A(i, j) = B(i, j)
    end do
  end do
end do
end
`,
			Params: map[string]int64{"N": 128, "T": 10},
		},
		{
			Name:  "stencil9",
			Shape: "2D 9-point stencil; wider halo still nearest-neighbor",
			Source: `
program stencil9
param N, T
real A(N, N), B(N, N)
do k = 1, T
  do i = 2, N - 1
    do j = 2, N - 1
      B(i, j) = 0.125 * (A(i - 1, j - 1) + A(i - 1, j) + A(i - 1, j + 1) + A(i, j - 1) + A(i, j + 1) + A(i + 1, j - 1) + A(i + 1, j) + A(i + 1, j + 1))
    end do
  end do
  do i = 2, N - 1
    do j = 2, N - 1
      A(i, j) = B(i, j)
    end do
  end do
end do
end
`,
			Params: map[string]int64{"N": 128, "T": 10},
		},
		{
			Name:  "redblack",
			Shape: "red-black SOR with parity guards; in-place neighbor sync",
			// The parity guards make the half-sweeps independent, which
			// the affine dependence test cannot see (mod is not affine);
			// the explicit `parallel do` annotations stand in for the
			// programmer assertion, as in compilers of the paper's era.
			Source: `
program redblack
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
			Params: map[string]int64{"N": 4096, "T": 10},
		},
		{
			Name:  "shallow",
			Shape: "shallow-water style staggered-field update chain",
			Source: `
program shallow
param N, T
real P(N, N), U(N, N), V(N, N), PN(N, N), UN(N, N), VN(N, N)
do k = 1, T
  do i = 2, N - 1
    do j = 2, N - 1
      UN(i, j) = U(i, j) - 0.1 * (P(i + 1, j) - P(i - 1, j))
    end do
  end do
  do i = 2, N - 1
    do j = 2, N - 1
      VN(i, j) = V(i, j) - 0.1 * (P(i, j + 1) - P(i, j - 1))
    end do
  end do
  do i = 2, N - 1
    do j = 2, N - 1
      PN(i, j) = P(i, j) - 0.05 * (U(i + 1, j) - U(i - 1, j) + V(i, j + 1) - V(i, j - 1))
    end do
  end do
  do i = 2, N - 1
    do j = 2, N - 1
      U(i, j) = UN(i, j)
    end do
  end do
  do i = 2, N - 1
    do j = 2, N - 1
      V(i, j) = VN(i, j)
    end do
  end do
  do i = 2, N - 1
    do j = 2, N - 1
      P(i, j) = PN(i, j)
    end do
  end do
end do
end
`,
			Params: map[string]int64{"N": 96, "T": 8},
		},
		{
			Name:  "tred2like",
			Shape: "Householder-style serial sweep with pivot broadcast (counter)",
			Source: `
program tred2like
param N
real A(N, N), D(N)
do k = 2, N
  D(k) = A(1, k - 1) * 0.5 + 0.001
  parallel do i = 1, N
    A(i, k) = 0.5 * A(i, k) + 0.1 * D(k) * A(i, k - 1)
  end do
end do
end
`,
			Params: map[string]int64{"N": 192},
		},
		{
			Name:  "lulike",
			Shape: "right-looking factorization: pivot row update + trailing matrix",
			Source: `
program lulike
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
			Params: map[string]int64{"N": 96},
		},
		{
			Name:  "pipeline",
			Shape: "erlebacher-style sweep: carried neighbor dep pipelined point-to-point",
			Source: `
program pipeline
param N, M
real A(N, M)
do k = 2, M
  do i = 2, N - 1
    A(i, k) = 0.5 * (A(i - 1, k - 1) + A(i + 1, k - 1))
  end do
end do
end
`,
			Params: map[string]int64{"N": 2048, "M": 64},
		},
		{
			Name:  "matmul",
			Shape: "dense matrix multiply; single parallel nest, no sync inside",
			Source: `
program matmul
param N
real A(N, N), B(N, N), C(N, N)
do i = 1, N
  do j = 1, N
    C(i, j) = 0.0
    do k = 1, N
      C(i, j) = C(i, j) + A(i, k) * B(k, j)
    end do
  end do
end do
end
`,
			Params: map[string]int64{"N": 96},
		},
		{
			Name:  "dotchain",
			Shape: "chain of reductions; barriers are genuinely required",
			Source: `
program dotchain
param N
real X(N), Y(N), Z(N), s1, s2, s3, a, b
do i = 1, N
  s1 = s1 + X(i) * Y(i)
end do
a = s1 / N
do i = 1, N
  Z(i) = X(i) + a * Y(i)
end do
do i = 1, N
  s2 = s2 + Z(i) * Z(i)
end do
b = s2 / N
do i = 1, N
  Z(i) = Z(i) / (b + 1.0)
end do
do i = 1, N
  s3 = s3 + Z(i)
end do
end
`,
			Params: map[string]int64{"N": 65536},
			Tol:    1e-9,
		},
		{
			Name:  "mg2level",
			Shape: "two-grid smoother; incomparable spaces keep barriers (conservative)",
			Source: `
program mg2level
param N, M, T
real F(N), C(M)
do k = 1, T
  do i = 2, N - 1
    F(i) = 0.5 * (F(i - 1) + F(i + 1))
  end do
  do i = 1, M
    C(i) = F(2 * i) * 0.5
  end do
  do i = 2, M - 1
    C(i) = 0.5 * (C(i - 1) + C(i + 1))
  end do
  do i = 1, M
    F(2 * i) = F(2 * i) + C(i) * 0.1
  end do
end do
end
`,
			Params: map[string]int64{"N": 4096, "M": 2048, "T": 6},
		},
		{
			Name:  "life",
			Shape: "cellular automaton with conditional updates; neighbor sync",
			Source: `
program life
param N, T
real G(N, N), H(N, N)
do k = 1, T
  do i = 2, N - 1
    do j = 2, N - 1
      H(i, j) = G(i - 1, j) + G(i + 1, j) + G(i, j - 1) + G(i, j + 1) + G(i - 1, j - 1) + G(i - 1, j + 1) + G(i + 1, j - 1) + G(i + 1, j + 1)
    end do
  end do
  do i = 2, N - 1
    do j = 2, N - 1
      if H(i, j) > 2.0 .and. H(i, j) < 3.5 then
        G(i, j) = 1.0
      else
        G(i, j) = 0.0
      end if
    end do
  end do
end do
end
`,
			Params: map[string]int64{"N": 128, "T": 8},
		},
		{
			Name:  "tomcatvlike",
			Shape: "mesh relaxation with per-step error reduction; neighbor + barrier mix",
			Source: `
program tomcatvlike
param N, T
real X(N, N), RX(N, N), err
do k = 1, T
  do i = 2, N - 1
    do j = 2, N - 1
      RX(i, j) = 0.25 * (X(i - 1, j) + X(i + 1, j) + X(i, j - 1) + X(i, j + 1)) - X(i, j)
    end do
  end do
  err = 0.0
  do i = 2, N - 1
    do j = 2, N - 1
      err = err + abs(RX(i, j))
    end do
  end do
  do i = 2, N - 1
    do j = 2, N - 1
      X(i, j) = X(i, j) + RX(i, j) / (err / N + 1.0)
    end do
  end do
end do
end
`,
			Params: map[string]int64{"N": 96, "T": 6},
			Tol:    1e-9,
		},
		{
			Name:  "erlebacher",
			Shape: "true §3.3 pipelining: serial in-place recurrence runs as a wavefront relay, staggered across the sweep loop",
			Source: `
program erlebacher
param N, M
real A(N, M)
do k = 2, M
  do i = 2, N
    A(i, k) = 0.5 * (A(i - 1, k) + A(i, k - 1))
  end do
end do
end
`,
			Params: map[string]int64{"N": 2048, "M": 64},
		},
		{
			Name:  "guardedpivot",
			Shape: "paper's guarded-producer pattern: `if i == k` write + counter broadcast",
			Source: `
program guardedpivot
param N
real A(N, N), D(N)
do k = 2, N
  parallel do i = 1, N
    if i == k then
      D(i) = A(1, k - 1) * 0.5 + 0.001
    end if
  end do
  parallel do i = 1, N
    A(i, k) = 0.5 * A(i, k) + 0.1 * D(k) * A(i, k - 1)
  end do
end do
end
`,
			Params: map[string]int64{"N": 192},
		},
		{
			Name:  "adilike",
			Shape: "ADI-style alternating sweeps; direction change forces a barrier",
			Source: `
program adilike
param N, T
real A(N, N), B(N, N)
do k = 1, T
  do i = 1, N
    do j = 2, N
      B(i, j) = A(i, j) + 0.5 * A(i, j - 1)
    end do
  end do
  do j = 1, N
    do i = 2, N
      A(i, j) = B(i, j) + 0.5 * B(i - 1, j)
    end do
  end do
end do
end
`,
			Params: map[string]int64{"N": 96, "T": 6},
		},
	}
}
