package exec_test

import (
	"cmp"
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
// to allocate a megabyte of maps per run. gatherscatter's rows are empty.
// meshsmooth's two blocks do conflict, so its workers wait on each other at
// every crossing, and those waits used to allocate in spmdrt as soon as
// their spin was spent (the watchdog site, its detail closure, its observe
// method value). A wait now registers with the watchdog only at its first
// sleep round, after 256 yields, which at this grain it does not reach: its
// count is exact too. (AllocsPerRun divides the total by the runs in
// integers, so a single wait that does get there in one of them drops out.)
// rotgather's sites cannot be cached and are scanned at every crossing; on
// one worker nothing waits, and both trip counts land in the same capacity
// of the per-scan flag bytes, so its count is exact again. permcopy (one
// worker) and edgerelax run their gathers and scatters in row form; the
// temporaries, and edgerelax's stamps (its scatter is read back, so each
// entry proves its offsets distinct), come from the program's free list, so
// only a team's first run allocates them; so do the loop memos by which the
// gather loops of permcopy (one and two workers) and edgerelax check their
// index elements once per run (their counters per scope, a nest's rows'
// bounds: spmvcsr). jacobi2d (one worker, N=16) and
// adilike run their 2-D nests through a nest's plan, which checks each
// cursor once per slice on the stack and keeps each cursor's delta in that
// same pooled scratch, so it allocates nothing per slice. redblack (two
// workers) runs its parity-guarded loops as progressions whose start and step
// each entry works out on the stack. spmvcsr (one worker) runs its CSR rows
// through a nest's plan, which reads a block of rows' bounds into that
// pooled scratch too. Nor may a count
// depend on how many runs the pooled team has served (-count reuses it):
// formatting the team's generation allocates only from 100 on, so only a
// traced run, which has a recorder to stamp, formats it.
func TestSliceAllocatesNothing(t *testing.T) {
	kernel := func(name string) string {
		k, err := suite.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return k.Source
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
	irregular := func(name string) string {
		k, err := suite.GetIrregular(name)
		if err != nil {
			t.Fatal(err)
		}
		return k.Source
	}
	for _, tc := range []struct {
		name, src   string
		workers     int
		short, long int64
		n           int64 // 64 when zero
	}{
		{"jacobi1d", kernel("jacobi1d"), 1, 100, 200, 0},
		{"reduction-chain", chain, 1, 100, 200, 0},
		{"gatherscatter", irregular("gatherscatter"), 2, 100, 200, 0},
		{"meshsmooth", irregular("meshsmooth"), 2, 100, 200, 0},
		{"rotgather", rotGather, 1, 130, 250, 0},
		{"permcopy", irregular("permcopy"), 1, 100, 200, 0},
		{"permcopy-p2", irregular("permcopy"), 2, 100, 200, 0},
		{"edgerelax", irregular("edgerelax"), 2, 100, 200, 0},
		{"jacobi2d", kernel("jacobi2d"), 1, 100, 200, 16},
		{"adilike", kernel("adilike"), 2, 100, 200, 16},
		{"redblack", kernel("redblack"), 2, 100, 200, 0},
		{"spmvcsr", irregular("spmvcsr"), 1, 100, 200, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.Compile(tc.src, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			allocs := func(trips int64) (perRun float64) {
				r, err := c.NewRunner(exec.Config{Workers: tc.workers, Mode: exec.SPMD,
					Params: map[string]int64{"N": cmp.Or(tc.n, 64), "T": trips}})
				if err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(5, func() {
					if _, err := r.Run(); err != nil {
						t.Fatal(err)
					}
				})
			}
			if short, long := allocs(tc.short), allocs(tc.long); long > short {
				t.Fatalf("allocations per run grow with the trip count: %.0f at T=%d, %.0f at T=%d",
					short, tc.short, long, tc.long)
			}
		})
	}
}
