package fdo

import (
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/profile"
	"repro/internal/remarks"
	"repro/internal/syncopt"
)

// synthSched builds a three-boundary top-region schedule by hand:
// site 1 a barrier with a rejected-counter ladder, site 2 a counter,
// site 3 a barrier with no recorded alternatives.
func synthSched() *syncopt.Schedule {
	return &syncopt.Schedule{
		Top: &syncopt.RegionSched{
			Groups: []syncopt.Group{{}, {}, {}},
			After: []syncopt.Sync{
				{Class: comm.ClassBarrier,
					Rejected: []remarks.Alternative{{Primitive: remarks.PrimCounter, Reason: "earlier flows"}}},
				{Class: comm.ClassCounter},
				{Class: comm.ClassBarrier},
			},
		},
	}
}

// synthProfile measures the synthetic schedule: site 1 dominates the wait.
func synthProfile(sched *syncopt.Schedule) *profile.Profile {
	p := &profile.Profile{
		Schema: profile.Schema, Program: "synth",
		ProgramHash: "p:x", ScheduleHash: "s:x",
		Mode: "spmd", Workers: 4, Backend: "closure", Barrier: "central",
		Runs: 1, SpanNS: 10_000_000,
	}
	add := func(site int, kind string, ops int64, waits int, each time.Duration, episodes, slackNS int64) {
		sp := profile.SiteProfile{Site: site, Kind: kind, Ops: ops,
			Episodes: episodes, SlackSumNS: slackNS}
		for i := 0; i < waits; i++ {
			sp.Wait.Add(each)
		}
		p.Sites = append(p.Sites, sp)
	}
	add(1, "barrier", 4, 4, 2*time.Millisecond, 4, 1_000_000)
	add(2, "counter", 4, 4, 100*time.Microsecond, 0, 0)
	add(3, "barrier", 4, 4, 500*time.Microsecond, 4, 100_000)
	return p
}

func alwaysOK(*syncopt.Schedule) (bool, error) { return true, nil }
func alwaysNo(*syncopt.Schedule) (bool, error) { return false, nil }

func TestReoptimizeWeakens(t *testing.T) {
	sched := synthSched()
	prof := synthProfile(sched)
	res, err := Reoptimize(sched, prof, alwaysOK)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips == 0 {
		t.Fatal("no flips with a permissive checker and a dominant barrier site")
	}
	b := res.Schedule.Boundaries()
	if b[0].Class != comm.ClassCounter {
		t.Fatalf("site 1 = %s, want counter (its ladder re-ranked by the measured counter prior)", b[0].Class)
	}
	if b[0].FDO == nil || b[0].FDO.Action != "weaken" || b[0].FDO.From != "barrier" {
		t.Fatalf("site 1 FDO remark = %+v, want weaken-from-barrier with evidence", b[0].FDO)
	}
	if b[0].FDO.Prior.Waits != 4 || b[0].FDO.Prior.P50NS == 0 {
		t.Fatalf("FDO remark lacks measured prior: %+v", b[0].FDO.Prior)
	}
	// The input schedule must be untouched.
	if sched.Top.After[0].Class != comm.ClassBarrier || sched.Top.After[0].FDO != nil {
		t.Fatal("Reoptimize mutated its input schedule")
	}
	// The measured counter prior (100µs/op at site 2) re-ranks the ladder:
	// the weaken reason must cite it, not the static fallback fraction.
	if !strings.Contains(b[0].FDO.Reason, "100000ns/op") {
		t.Fatalf("weaken reason %q does not cite the measured counter prior", b[0].FDO.Reason)
	}
}

func TestReoptimizeRespectsCertifier(t *testing.T) {
	sched := synthSched()
	prof := synthProfile(sched)
	res, err := Reoptimize(sched, prof, alwaysNo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips != 0 {
		t.Fatalf("%d flips past a rejecting certifier", res.Flips)
	}
	for _, b := range res.Schedule.Boundaries() {
		if b.FDO != nil {
			t.Fatalf("flip evidence on an unflipped site: %+v", b.FDO)
		}
	}
	// Rejections are still logged, with certified=false.
	sawReject := false
	for _, d := range res.Decisions {
		if d.Action == "reject" && !d.Certified {
			sawReject = true
		}
		if d.Action == "weaken" || d.Action == "promote" {
			t.Fatalf("schedule-changing decision past a rejecting certifier: %+v", d)
		}
	}
	if !sawReject {
		t.Fatal("no rejection decisions logged")
	}
}

func TestReoptimizeNilCheckFailsClosed(t *testing.T) {
	res, err := Reoptimize(synthSched(), synthProfile(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips != 0 {
		t.Fatal("nil CheckFunc must reject every mutation")
	}
}

func TestReoptimizePromotesMeasuredSlowPrimitive(t *testing.T) {
	sched := synthSched()
	p := &profile.Profile{
		Schema: profile.Schema, Program: "synth",
		ProgramHash: "p:x", ScheduleHash: "s:x",
		Mode: "spmd", Workers: 4, Backend: "closure", Barrier: "central",
		Runs: 1, SpanNS: 10_000_000,
	}
	// The counter at site 2 measures 10× the barrier prior and carries
	// most of the program's wait: the pass must strengthen it.
	s1 := profile.SiteProfile{Site: 1, Kind: "barrier", Ops: 4, Episodes: 4}
	s1.Wait.Add(100 * time.Microsecond)
	s2 := profile.SiteProfile{Site: 2, Kind: "counter", Ops: 4}
	for i := 0; i < 4; i++ {
		s2.Wait.Add(2 * time.Millisecond)
	}
	s3 := profile.SiteProfile{Site: 3, Kind: "barrier", Ops: 4, Episodes: 4}
	s3.Wait.Add(100 * time.Microsecond)
	p.Sites = []profile.SiteProfile{s1, s2, s3}

	res, err := Reoptimize(sched, p, alwaysOK)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Schedule.Boundaries()
	if b[1].Class != comm.ClassBarrier {
		t.Fatalf("site 2 = %s, want barrier (measured 10× the barrier prior)", b[1].Class)
	}
	if b[1].FDO == nil || b[1].FDO.Action != "promote" {
		t.Fatalf("site 2 FDO remark = %+v, want promote", b[1].FDO)
	}
}

func TestReoptimizeDeterministic(t *testing.T) {
	for i := 0; i < 5; i++ {
		a, err := Reoptimize(synthSched(), synthProfile(nil), alwaysOK)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Reoptimize(synthSched(), synthProfile(nil), alwaysOK)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Decisions) != len(b.Decisions) {
			t.Fatalf("decision counts differ: %d vs %d", len(a.Decisions), len(b.Decisions))
		}
		for j := range a.Decisions {
			if a.Decisions[j] != b.Decisions[j] {
				t.Fatalf("decision %d differs:\n%+v\n%+v", j, a.Decisions[j], b.Decisions[j])
			}
		}
		if a.Flips != b.Flips || a.PredictedSaveNS != b.PredictedSaveNS {
			t.Fatal("result summaries differ between identical runs")
		}
	}
}

// TestReoptimizeRendezvousBound pins the structural damper: a barrier
// whose every dependence individually requires barrier strength is the
// rendezvous — no counter prior, fallback or measured at a sparser site,
// may argue a flip there, no matter how permissive the certifier is. A
// mixed-provenance barrier is never damped.
func TestReoptimizeRendezvousBound(t *testing.T) {
	allBarrierDeps := []remarks.Dependence{
		{Var: "s", Kind: "flow", Class: remarks.PrimBarrier},
		{Var: "s", Kind: "anti", Class: remarks.PrimBarrier},
	}
	// No measured counter anywhere: site 2's counter recorded no ops, so
	// the candidate estimate would be the fallback fraction — refused.
	sched := synthSched()
	sched.Top.After[0].Deps = allBarrierDeps
	prof := synthProfile(sched)
	prof.Sites[1].Ops = 0
	prof.Sites[1].Wait = profile.Sketch{}
	res, err := Reoptimize(sched, prof, alwaysOK)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schedule.Boundaries()[0].Class; got != comm.ClassBarrier {
		t.Fatalf("site 1 = %s, want barrier kept (rendezvous-bound, fallback prior)", got)
	}
	sawBound := false
	for _, d := range res.Decisions {
		if d.Site == 1 && d.Action == "reject" && strings.Contains(d.Reason, "rendezvous") {
			sawBound = true
		}
	}
	if !sawBound {
		t.Fatalf("no rendezvous-bound rejection logged: %+v", res.Decisions)
	}

	// Same structure with a counter measured in-program: that prior came
	// from a sparser site, so it does not transfer — still refused.
	sched2 := synthSched()
	sched2.Top.After[0].Deps = allBarrierDeps
	res2, err := Reoptimize(sched2, synthProfile(sched2), alwaysOK)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Schedule.Boundaries()[0].Class; got != comm.ClassBarrier {
		t.Fatalf("site 1 = %s, want barrier kept (measured prior does not transfer to a rendezvous-bound site)", got)
	}

	// One weaker dependence in the mix and the damper stands down even on
	// a pure fallback estimate: the barrier came from the combination rule.
	sched3 := synthSched()
	sched3.Top.After[0].Deps = []remarks.Dependence{
		{Var: "s", Kind: "flow", Class: remarks.PrimBarrier},
		{Var: "t", Kind: "flow", Class: remarks.PrimCounter},
	}
	prof3 := synthProfile(sched3)
	prof3.Sites[1].Ops = 0
	prof3.Sites[1].Wait = profile.Sketch{}
	res3, err := Reoptimize(sched3, prof3, alwaysOK)
	if err != nil {
		t.Fatal(err)
	}
	if got := res3.Schedule.Boundaries()[0].Class; got != comm.ClassCounter {
		t.Fatalf("site 1 = %s, want counter (mixed deps, damper inactive)", got)
	}
}

func TestReoptimizeStaleProfileErrors(t *testing.T) {
	sched := synthSched()
	prof := synthProfile(sched)
	prof.Sites[0].Site = 99 // outside the schedule
	if _, err := Reoptimize(sched, prof, alwaysOK); err == nil {
		t.Fatal("profile site outside the schedule must error")
	}
	prof = synthProfile(sched)
	prof.Sites[1].Kind = "barrier" // schedule has a counter there
	if _, err := Reoptimize(sched, prof, alwaysOK); err == nil {
		t.Fatal("profile kind disagreeing with the schedule must error")
	}
}
