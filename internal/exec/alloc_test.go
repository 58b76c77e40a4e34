package exec_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/suite"
)

// TestSliceAllocatesNothing guards the per-slice cost with a count, not a
// clock: doubling the trip count of the enclosing sequential loop doubles
// the slices every worker executes — placement arithmetic, private and
// reduction cells, the activity estimate of a counter site — and must not
// add one allocation to the run. One worker, so no wait outlasts its spin
// and allocates a watchdog site: the count is exact.
func TestSliceAllocatesNothing(t *testing.T) {
	jacobi, err := suite.Get("jacobi1d")
	if err != nil {
		t.Fatal(err)
	}
	// dotchain's shape (reduction, broadcast of the result, update) inside a
	// time loop, plus a private temporary; the suite's dotchain has no
	// sequential loop to scale.
	const chain = `
program chainloop
param N, T
real X(N), Y(N), Z(N), s, a, tmp
do t = 1, T
  s = 0.0
  do i = 1, N
    s = s + X(i) * Y(i)
  end do
  a = s / N
  do i = 1, N
    tmp = X(i) + a * Y(i)
    Z(i) = tmp * 0.5
  end do
end do
end
`
	for _, tc := range []struct{ name, src string }{
		{"jacobi1d", jacobi.Source},
		{"reduction-chain", chain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.Compile(tc.src, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			allocs := func(trips int64) float64 {
				r, err := c.NewRunner(exec.Config{Workers: 1, Mode: exec.SPMD,
					Params: map[string]int64{"N": 64, "T": trips}})
				if err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(5, func() {
					if _, err := r.Run(); err != nil {
						t.Fatal(err)
					}
				})
			}
			if short, long := allocs(100), allocs(200); long > short {
				t.Fatalf("allocations per run grow with the trip count: %.0f at T=100, %.0f at T=200", short, long)
			}
		})
	}
}
