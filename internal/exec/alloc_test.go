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
//
// The irregular programs guard the inspector the same way. gatherscatter
// and meshsmooth run on two workers (a lone worker has no row to compute):
// each worker scans its row once at its first crossing of a site, into
// storage it keeps, and the other T-1 crossings replay it — their scans used
// to allocate a megabyte of maps per run. gatherscatter's rows are empty,
// so its count is exact. meshsmooth's two blocks do conflict, and a wait
// that misses its fast path allocates in spmdrt (two closures, then the
// watchdog site and its detail once the spin is spent): its growth may be
// that of its waits, four allocations each at most, and nothing else.
// rotgather's sites cannot be cached and are scanned at every crossing; on
// one worker nothing waits, and both trip counts land in the same capacity
// of the per-scan flag bytes, so its count is exact again.
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
	gatherscatter, err := suite.GetIrregular("gatherscatter")
	if err != nil {
		t.Fatal(err)
	}
	meshsmooth, err := suite.GetIrregular("meshsmooth")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, src   string
		workers     int
		short, long int64
	}{
		{"jacobi1d", jacobi.Source, 1, 100, 200},
		{"reduction-chain", chain, 1, 100, 200},
		{"gatherscatter", gatherscatter.Source, 2, 100, 200},
		{"meshsmooth", meshsmooth.Source, 2, 100, 200},
		{"rotgather", rotGather, 1, 130, 250},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.Compile(tc.src, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			allocs := func(trips int64) (perRun float64, waits int64) {
				r, err := c.NewRunner(exec.Config{Workers: tc.workers, Mode: exec.SPMD,
					Params: map[string]int64{"N": 64, "T": trips}})
				if err != nil {
					t.Fatal(err)
				}
				perRun = testing.AllocsPerRun(5, func() {
					res, err := r.Run()
					if err != nil {
						t.Fatal(err)
					}
					waits = res.Stats.NeighborWaits
				})
				return perRun, waits
			}
			short, shortWaits := allocs(tc.short)
			long, longWaits := allocs(tc.long)
			if long > short+4*float64(longWaits-shortWaits) {
				t.Fatalf("allocations per run grow with the trip count: %.0f at T=%d (%d waits), %.0f at T=%d (%d waits)",
					short, tc.short, shortWaits, long, tc.long, longWaits)
			}
		})
	}
}
