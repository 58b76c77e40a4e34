package remarks

import (
	"strings"
	"testing"
	"time"
)

func dep(class string, rejected ...Alternative) Dependence {
	return Dependence{
		Var: "A", Kind: "flow",
		Src:      Access{Kind: "write", Ref: "A(i)", Mode: "parallel", Line: 3, Col: 1},
		Dst:      Access{Kind: "read", Ref: "A(i - 1)", Mode: "parallel", Line: 5, Col: 2},
		Class:    class,
		Rejected: rejected,
	}
}

func TestMergeRejected(t *testing.T) {
	deps := []Dependence{
		dep(PrimNeighbor, Alternative{PrimNone, "first reason"}),
		dep(PrimCounter, Alternative{PrimNone, "second reason"},
			Alternative{PrimNeighbor, "spans blocks"}),
	}
	extra := []Alternative{{PrimCounter, "two producers"}, {PrimBarrier, "never kept"}}

	got := MergeRejected(deps, extra, PrimBarrier)
	want := []Alternative{
		{PrimNone, "first reason"},
		{PrimNeighbor, "spans blocks"},
		{PrimCounter, "two producers"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merged[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// Only primitives strictly cheaper than the chosen one survive.
	got = MergeRejected(deps, extra, PrimNeighbor)
	if len(got) != 1 || got[0].Primitive != PrimNone {
		t.Errorf("chosen=neighbor: got %v, want only none", got)
	}
	if got := MergeRejected(deps, extra, PrimNone); len(got) != 0 {
		t.Errorf("chosen=none: got %v, want empty", got)
	}
}

func TestWhyPicksBindingDependence(t *testing.T) {
	r := Remark{
		Primitive: PrimNeighbor,
		Deps:      []Dependence{dep(PrimNone), dep(PrimNeighbor), dep(PrimNone)},
	}
	if why := r.Why(); !strings.Contains(why, "=> neighbor") {
		t.Errorf("Why() = %q, want the neighbor-class dependence", why)
	}
	r = Remark{Primitive: PrimBarrier, Note: "ablation"}
	if r.Why() != "ablation" {
		t.Errorf("Why() = %q, want note fallback", r.Why())
	}
}

func TestBuildReportRanking(t *testing.T) {
	set := &Set{Program: "p", Remarks: []Remark{
		{Site: 1, Primitive: PrimNone},
		{Site: 2, Primitive: PrimNeighbor},
		{Site: 3, Primitive: PrimBarrier},
		{Site: 4, Primitive: PrimCounter},
	}}
	rt := map[int]SiteRuntime{
		2: {NeighborWaits: 10, Waits: 10, TotalWait: 5 * time.Millisecond},
		3: {Barriers: 4, Waits: 4, TotalWait: 20 * time.Millisecond, Max: 9 * time.Millisecond,
			Straggler: &Straggler{Worker: 5, Share: 0.75}},
		4: {CounterIncrs: 7, CounterWaits: 7},
	}
	att := &Attribution{WorkerTime: 100 * time.Millisecond, Compute: 75 * time.Millisecond,
		Dropped: 3, Waits: []KindWait{
			{Kind: "barrier", Events: 32, Wait: 20 * time.Millisecond},
			{Kind: "neighbor-wait", Events: 10, Wait: 5 * time.Millisecond}}}
	rep := BuildReport(set, rt, att, 8)
	if !rep.Traced {
		t.Error("report with an attribution not marked traced")
	}
	if rep.Eliminated != 1 {
		t.Errorf("Eliminated = %d, want 1", rep.Eliminated)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (eliminated site excluded)", len(rep.Rows))
	}
	// Ranked by total wait desc, then ops desc: 3 (20ms), 2 (5ms), 4 (0).
	order := []int{3, 2, 4}
	for i, want := range order {
		if rep.Rows[i].Remark.Site != want {
			t.Errorf("row %d site = %d, want %d", i, rep.Rows[i].Remark.Site, want)
		}
	}
	if ops := rep.Rows[2].Runtime.Ops(); ops != 14 {
		t.Errorf("counter site ops = %d, want 14", ops)
	}
	out := rep.Render()
	for _, want := range []string{"sync report: p", "P=8", "kept=3 eliminated=1", "why kept",
		"worker time 100ms (P × span): compute 75.0%, barrier 20.0% (32), neighbor-wait 5.0% (10); 3 events dropped",
		"max", "9ms", "w5 75%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
	if out := BuildReport(set, rt, nil, 8).Render(); !strings.Contains(out, "(no trace") {
		t.Errorf("untraced report lacks the no-trace line:\n%s", out)
	}
}

func TestRenderSiteLines(t *testing.T) {
	s := &Set{Program: "p", Remarks: []Remark{
		{Site: 1, Line: 5, Col: 1, Region: "top", FromGroup: 0, ToGroup: 1,
			Primitive: PrimNone, Note: "end of program"},
		{Site: 2, Line: 6, Col: 3, Region: "loop k @5:1", LoopBottom: true,
			Primitive: PrimNeighbor, WaitLower: true,
			Deps:     []Dependence{dep(PrimNeighbor)},
			Rejected: []Alternative{{PrimNone, "feasible"}},
			FM:       FMVerdict{Feasible: true, Exact: true, Systems: 2}},
	}}
	out := s.Render()
	for _, want := range []string{
		"optimization remarks for p: 2 sync sites",
		"site 1 @5:1 [top g0→g1] eliminated: none",
		"note: end of program",
		"loop-bottom] kept: neighbor(lower)",
		"rejected none: feasible",
		"fm total: feasible (exact, 2 systems",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
}
