package suite

import "fmt"

// IrregularKernels returns the irregular-access suite: kernels whose
// communication pattern runs through index arrays, so affine analysis
// alone cannot place anything better than a barrier. They exercise the
// two irregular tiers — static elimination from value facts (content,
// range, monotonicity) and inspector/executor synthesis. They are kept
// apart from Kernels() so the affine tables (1..4) keep their historical
// populations; benchtab prints them as a second block under Table 3.
//
// Each kernel builds its index arrays in a guarded setup prefix (the
// pattern the irregular analysis recognizes: master-executed writes
// before any parallel work), then iterates a time loop whose parallel
// loops communicate through the index arrays.
func IrregularKernels() []Kernel {
	return []Kernel{
		{
			Name:  "permcopy",
			Shape: "identity permutation copy; value facts eliminate statically",
			Source: `
program permcopy
param N, T
real A(N), B(N), P(max(N, 1))
P(1) = 1.0
do kk = 2, N
  P(kk) = P(kk - 1) + 1.0
end do
parallel do i = 1, N
  A(i) = 1.0 / (i + 1.0)
end do
do t = 1, T
  parallel do i = 1, N
    B(P(i)) = A(i) * 0.5 + 1.0
  end do
  parallel do i = 1, N
    A(i) = B(P(i)) * 0.25 + A(i) * 0.75
  end do
end do
end
`,
			Params: map[string]int64{"N": 1024, "T": 8},
		},
		{
			Name:  "gatherscatter",
			Shape: "monotone gather/scatter map; inspector certifies no conflicts",
			Source: `
program gatherscatter
param N, T
real A(N), B(N), g(max(N, 1))
g(1) = 1.0
do kk = 2, N
  g(kk) = min(g(kk - 1) + 1.0, N)
end do
parallel do i = 1, N
  A(i) = 0.5 + 0.001 * i
end do
do t = 1, T
  parallel do i = 1, N
    B(g(i)) = A(i) + 0.5
  end do
  parallel do i = 1, N
    A(i) = B(g(i)) * 0.9 + 0.1
  end do
end do
end
`,
			Params: map[string]int64{"N": 1024, "T": 8},
		},
		{
			Name:  "spmvcsr",
			Shape: "CSR sparse matvec; inspector schedules cross-block x reads",
			Source: `
program spmvcsr
param N, T
real rp(max(N + 1, 1)), cl(max(2 * N + 1, 1)), v(max(2 * N + 1, 1)), x(N), y(N)
rp(1) = 1.0
do kk = 2, N + 1
  rp(kk) = rp(kk - 1) + 2.0
end do
cl(1) = 1.0
do kk = 2, 2 * N + 1
  cl(kk) = mod(cl(kk - 1) + 3.0, N) + 1.0
end do
parallel do k = 1, 2 * N + 1
  v(k) = 0.5
end do
parallel do i = 1, N
  x(i) = 1.0
end do
do t = 1, T
  parallel do i = 1, N
    y(i) = 0.0
    do k = rp(i), rp(i + 1) - 1
      y(i) = y(i) + v(k) * x(cl(k))
    end do
  end do
  parallel do i = 1, N
    x(i) = 0.5 * x(i) + 0.25 * y(i)
  end do
end do
end
`,
			Params: map[string]int64{"N": 512, "T": 8},
		},
		{
			Name:  "meshsmooth",
			Shape: "unstructured-mesh smoothing; gather through a neighbor table",
			Source: `
program meshsmooth
param N, T
real u(N), f(N), r(N), nb(max(N, 1))
nb(1) = min(5, N)
do kk = 2, N
  nb(kk) = mod(nb(kk - 1) + 6.0, N) + 1.0
end do
parallel do i = 1, N
  r(i) = 0.001 * i
end do
parallel do i = 1, N
  u(i) = 1.0
end do
do t = 1, T
  parallel do i = 1, N
    f(i) = u(i) * 0.5 + r(i)
  end do
  parallel do i = 1, N
    u(i) = u(i) * 0.6 + f(nb(i)) * 0.4
  end do
end do
end
`,
			Params: map[string]int64{"N": 1024, "T": 8},
		},
		{
			Name:  "edgerelax",
			Shape: "edge relaxation over a rotation map; inspector waits cross blocks",
			Source: `
program edgerelax
param N, T
real val(N), wt(N), dst(max(N, 1))
dst(1) = min(2, N)
do kk = 2, N
  dst(kk) = mod(dst(kk - 1), N) + 1.0
end do
parallel do i = 1, N
  wt(i) = 0.01 + 0.001 * i
end do
parallel do i = 1, N
  val(i) = 1.0
end do
do t = 1, T
  parallel do e = 1, N
    val(dst(e)) = val(dst(e)) * 0.95 + wt(e)
  end do
  parallel do i = 1, N
    wt(i) = 0.99 * wt(i) + 0.01 * val(i)
  end do
end do
end
`,
			Params: map[string]int64{"N": 1024, "T": 8},
		},
	}
}

// GetIrregular returns the named irregular kernel.
func GetIrregular(name string) (Kernel, error) {
	for _, k := range IrregularKernels() {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("unknown irregular kernel %q", name)
}

// MeasureIrregAll measures every irregular-suite kernel.
func MeasureIrregAll(opt MeasureOptions) ([]Metrics, error) {
	var out []Metrics
	for _, k := range IrregularKernels() {
		m, err := Measure(k, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}
