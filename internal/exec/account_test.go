package exec_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/profile"
	"repro/internal/suite"
	"repro/internal/synctrace"
)

// TestOneSiteAccount pins that one traced run gives one account per sync
// site: the durable profile record (SiteProfiles) and the report's runtime
// join (SiteRuntimes) carry the site's dynamic counts from Stats.PerSite and
// its waits and barrier imbalance exactly as the trace summary's rows have
// them — on a fork-join barrier kernel, a neighbor kernel, a counter kernel
// and an inspector kernel, each at two team sizes.
func TestOneSiteAccount(t *testing.T) {
	for _, tc := range []struct {
		kernel string
		mode   exec.Mode
	}{
		{"dotchain", exec.ForkJoin},
		{"jacobi1d", exec.SPMD},
		{"guardedpivot", exec.SPMD},
		{"permcopy", exec.SPMD},
	} {
		for _, p := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/%s/P=%d", tc.kernel, tc.mode, p), func(t *testing.T) {
				r, res := accountRun(t, tc.kernel, p, tc.mode)
				sum := synctrace.Summarize(res.Trace)
				profs := map[int]profile.SiteProfile{}
				for _, sp := range r.SiteProfiles(&res.Result) {
					profs[sp.Site] = sp
				}
				rts := r.SiteRuntimes(&res.Result)
				waited := 0
				for id := 1; id <= r.NumSyncSites(); id++ {
					c, sp, rt := res.Stats.PerSite[id], profs[id], rts[id]
					if ops := c.Barriers + c.CounterIncrs + c.CounterWaits + c.NeighborWaits; sp.Ops != ops {
						t.Errorf("site %d: profile ops %d, PerSite sum %d", id, sp.Ops, ops)
					}
					var row synctrace.SiteSummary
					kinds := 0
					for _, ss := range sum.Sites {
						if int(ss.ID) == id-1 {
							row = ss
							kinds++
						}
					}
					if kinds > 1 {
						t.Errorf("site %d recorded %d blocking kinds, want at most one", id, kinds)
					}
					if row.Count > 0 {
						waited++
					}
					if w := sp.Wait; w.Count != row.Count || w.SumNS != int64(row.Total) ||
						w.MinNS != int64(row.Min) || w.MaxNS != int64(row.Max) {
						t.Errorf("site %d: profile wait count=%d sum=%d min=%d max=%d, summary row %+v",
							id, w.Count, w.SumNS, w.MinNS, w.MaxNS, row)
					}
					var im synctrace.SiteImbalance
					for _, si := range sum.Imbalance {
						if int(si.ID) == id-1 {
							im = si
						}
					}
					if sp.Episodes != im.Episodes || sp.MaxSlackNS != int64(im.MaxSlack) ||
						!slices.Equal(sp.LastByWorker, im.LastByWorker) {
						t.Errorf("site %d: profile episodes=%d max-slack=%d last=%v, imbalance row %+v",
							id, sp.Episodes, sp.MaxSlackNS, sp.LastByWorker, im)
					}
					if rt.Waits != row.Count || rt.TotalWait != row.Total || rt.P50 != row.P50 ||
						rt.P99 != row.P99 || rt.Max != row.Max {
						t.Errorf("site %d: runtime %+v, summary row %+v", id, rt, row)
					}
				}
				if waited == 0 {
					t.Error("no scheduled site recorded a wait")
				}
			})
		}
	}
}

// accountRun compiles a suite kernel (affine or irregular) at test sizes and
// runs it once traced on p workers.
func accountRun(t *testing.T, kernel string, p int, mode exec.Mode) (*core.Runner, *core.Result) {
	t.Helper()
	k, err := suite.Get(kernel)
	if err != nil {
		if k, err = suite.GetIrregular(kernel); err != nil {
			t.Fatal(err)
		}
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := exec.Config{Workers: p, Params: clampParams(k.Params), Mode: mode, Trace: true}
	newRunner := c.NewRunner
	if mode == exec.ForkJoin {
		newRunner = c.NewBaselineRunner
	}
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("%s: %v", kernel, err)
	}
	return r, res
}
