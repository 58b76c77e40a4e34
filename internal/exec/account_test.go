package exec_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/profile"
	"repro/internal/remarks"
	"repro/internal/suite"
	"repro/internal/synctrace"
)

// TestOneSiteAccount pins that one traced run gives one account per sync
// site: the durable profile record (SiteJoin.Profiles) and the report's
// runtime view (SiteJoin.Runtime), both read off one Join, carry the site's dynamic counts from Stats.PerSite and
// its waits and barrier imbalance exactly as the trace summary's rows have
// them, and the report's header its per-kind totals — on a fork-join barrier kernel, a neighbor kernel, a counter kernel
// and an inspector kernel, each at two team sizes.
func TestOneSiteAccount(t *testing.T) {
	for _, tc := range []struct {
		kernel   string
		baseline bool
	}{
		{"dotchain", true},
		{"jacobi1d", false},
		{"guardedpivot", false},
		{"permcopy", false},
	} {
		for _, p := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/%s/P=%d", tc.kernel, modeOf(tc.baseline), p), func(t *testing.T) {
				r, res := accountRun(t, tc.kernel, p, tc.baseline)
				sum := synctrace.Summarize(res.Trace)
				j := r.Join(&res.Result)
				profs := map[int]profile.SiteProfile{}
				for _, sp := range j.Profiles() {
					profs[sp.Site] = sp
				}
				rts, att := j.Runtime()
				checkAttribution(t, sum, att)
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
					var rowMin time.Duration
					if row.Count > 0 {
						rowMin = row.Waits[0]
					}
					if w := sp.Wait; w.Count != row.Count || w.SumNS != int64(row.Total) ||
						w.MinNS != int64(rowMin) || w.MaxNS != int64(row.Max) {
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
					if s := rt.Straggler; (s == nil) != (im.Episodes == 0) ||
						s != nil && (s.Worker != im.Straggler || s.Share != im.StragglerShare) {
						t.Errorf("site %d: runtime straggler %+v, imbalance row %+v", id, s, im)
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

// checkAttribution pins the report header to the fold it comes from: the
// worker time is P × span, every blocking kind that recorded events has its
// summed wait, and compute is the rest.
func checkAttribution(t *testing.T, sum *synctrace.Summary, att *remarks.Attribution) {
	t.Helper()
	if att == nil {
		t.Fatal("traced run has no attribution")
	}
	if want := time.Duration(sum.Workers) * sum.Span; att.WorkerTime != want {
		t.Errorf("worker time %s, want P × span %s", att.WorkerTime, want)
	}
	total := att.Compute
	kinds := map[string]remarks.KindWait{}
	for _, kw := range att.Waits {
		kinds[kw.Kind] = kw
		total += kw.Wait
	}
	if total != att.WorkerTime {
		t.Errorf("compute + waits = %s, want worker time %s", total, att.WorkerTime)
	}
	for k, kt := range sum.ByKind {
		kind := synctrace.Kind(k)
		if kw := kinds[kind.String()]; kind.Blocking() && (kw.Events != kt.Count || kw.Wait != kt.Wait) {
			t.Errorf("%s: attribution %+v, summary %+v", kind, kw, kt)
		}
	}
	if att.Dropped != sum.Dropped {
		t.Errorf("dropped %d, summary %d", att.Dropped, sum.Dropped)
	}
}

// accountRun compiles a suite kernel (affine or irregular) at test sizes and
// runs its baseline or optimized schedule once traced on p workers.
func accountRun(t *testing.T, kernel string, p int, baseline bool) (*core.Runner, *core.Result) {
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
	cfg := exec.Config{Workers: p, Params: clampParams(k.Params), Trace: true, FixedWidth: true}
	newRunner := c.NewRunner
	if baseline {
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
