// Package syncopt implements the paper's greedy barrier-elimination
// algorithm (§3.2.2) over SPMD regions:
//
//  1. Start with the first statement as the current group.
//  2. For each following statement, test for loop-independent
//     communication against the current group and against earlier groups
//     whose flows are not already covered by intervening synchronization.
//  3. If no communication exists, merge the statement into the group;
//     otherwise emit the cheapest sufficient synchronization (none <
//     neighbor point-to-point < counter < barrier) and start a new group.
//  4. For a sequential loop enclosing the region, test loop-carried
//     communication and place (or eliminate, or weaken into a pipelining
//     point-to-point) the loop-bottom barrier.
//
// Coverage rules: a counter synchronizes one-way between all producers and
// all waiters, so like a barrier it covers any earlier flow crossing it;
// a neighbor sync covers only neighbor-class flows whose directions it
// includes (point-to-point waits compose transitively across groups).
package syncopt

import (
	"fmt"
	"strings"

	"repro/internal/comm"
	"repro/internal/ir"
	"repro/internal/region"
	"repro/internal/remarks"
)

// Sync is the synchronization required at one region boundary, with the
// full provenance of the decision (the remark layer's per-site record).
type Sync struct {
	Class                comm.Class
	WaitLower, WaitUpper bool
	// Inspect lists, for ClassInspector, the access pairs the runtime
	// inspector scan must resolve at this boundary.
	Inspect []comm.InspectPair
	// Deps records the typed access-pair dependences that forced this
	// class, each with positions, FM evidence and a per-pair rejection
	// ladder.
	Deps []remarks.Dependence
	// Rejected records boundary-level alternatives tried beyond the
	// per-pair ladders (e.g. a counter sufficient for direct flows that
	// cannot order earlier-group flows).
	Rejected []remarks.Alternative
	// Note explains decisions not driven by an access pair (baseline
	// join barriers, ablation forcing).
	Note string
	// FM aggregates the Fourier-Motzkin evidence across Deps.
	FM remarks.FMVerdict
	// FDO records the feedback-directed re-optimization of this boundary
	// (nil on statically-built schedules); internal/fdo fills it when a
	// measured profile justified flipping the primitive, and the remark
	// layer surfaces it.
	FDO *remarks.FDORemark
}

// covers reports whether this sync, sitting at one of the boundaries a
// flow crosses, orders that flow. atSource marks the boundary directly
// after the flow's source group.
//
//   - A barrier orders everything: every worker arrives.
//   - A neighbor sync is POSTED by every worker at the boundary (posting
//     is unconditional in the runtime), so it orders neighbor-class flows
//     from any earlier group whose wait directions it includes — the
//     point-to-point waits compose transitively across groups.
//   - A counter is posted only by the workers active in ITS OWN preceding
//     group, so it orders a flow only at the flow's source boundary
//     (where the flow's producers are a subset of the posters). This
//     asymmetry is exactly the bug class the pipeline fuzzer catches if
//     relaxed.
//   - An inspector-class flow is ordered like a general flow by barriers
//     (anywhere) and counters (at its source boundary), or by an
//     inspector whose scan-pair list includes every pair of the flow: an
//     inspector's point-to-point waits cover exactly the pairs its scan
//     resolved, so an inspector placed for OTHER pairs proves nothing.
//     The certifier applies the same rule — its inspector edge requires
//     the boundary's recorded scan list to include the flow's pairs — so
//     dropping a barrier that covered an inspector flow can never be
//     masked by an unrelated inspector downstream.
func (s Sync) covers(v comm.Verdict, atSource bool) bool {
	if v.Class == comm.ClassInspector {
		switch s.Class {
		case comm.ClassBarrier:
			return true
		case comm.ClassCounter:
			return atSource
		case comm.ClassInspector:
			return includesPairs(s.Inspect, v.Inspect)
		}
		return false
	}
	switch s.Class {
	case comm.ClassBarrier:
		return true
	case comm.ClassCounter:
		return atSource
	case comm.ClassNeighbor:
		if v.Class != comm.ClassNeighbor {
			return false
		}
		return (!v.WaitLower || s.WaitLower) && (!v.WaitUpper || s.WaitUpper)
	default:
		return false
	}
}

// inspectKey identifies one scan pair. Refs and statements are pointers
// into the shared IR, so identity is stable between the build that stored
// the sync's pair list and a later Verify that re-derives the verdicts.
type inspectKey struct {
	array, carrier   string
	srcRef, dstRef   *ir.Ref
	srcStmt, dstStmt ir.Stmt
	srcW, dstW       bool
}

func keyOf(p comm.InspectPair) inspectKey {
	return inspectKey{
		array: p.Array, carrier: p.Carrier,
		srcRef: p.Src.Ref, dstRef: p.Dst.Ref,
		srcStmt: p.Src.Stmt, dstStmt: p.Dst.Stmt,
		srcW: p.Src.Write, dstW: p.Dst.Write,
	}
}

// includesPairs reports whether every pair of want appears in have.
func includesPairs(have, want []comm.InspectPair) bool {
	if len(want) == 0 {
		return false
	}
	set := make(map[inspectKey]bool, len(have))
	for _, p := range have {
		set[keyOf(p)] = true
	}
	for _, p := range want {
		if !set[keyOf(p)] {
			return false
		}
	}
	return true
}

// promote combines the synchronization needed for direct flows (from the
// group immediately before the boundary) with flows from earlier groups.
// A counter at this boundary is posted only by the preceding group's
// workers, so it cannot order earlier-group flows; neighbor syncs post
// from every worker and remain valid. Anything else must strengthen to a
// barrier.
func promote(direct, earlier comm.Verdict) Sync {
	if earlier.Class == comm.ClassNone {
		return syncFrom(direct)
	}
	combined := combineV(direct, earlier)
	if earlier.Class == comm.ClassNeighbor &&
		(direct.Class == comm.ClassNone || direct.Class == comm.ClassNeighbor) {
		return syncFrom(combined)
	}
	// Inspector posts are unconditional (every worker posts at the
	// boundary after finishing all its preceding work), and the merged
	// scan-pair list covers the earlier flows too, so an inspector can
	// order earlier-group flows the way a neighbor sync can.
	if earlier.Class == comm.ClassInspector &&
		(direct.Class == comm.ClassNone || direct.Class == comm.ClassInspector) {
		return syncFrom(combined)
	}
	s := Sync{Class: comm.ClassBarrier, Deps: combined.Deps, FM: combined.FM}
	if combined.Class != comm.ClassBarrier {
		// The cheaper primitive sufficient for the flows individually is
		// posted only by the immediately-preceding group's workers, so it
		// cannot order flows sourced in earlier groups.
		s.Rejected = append(s.Rejected, remarks.Alternative{
			Primitive: combined.Class.String(),
			Reason:    "cannot order uncovered flows from earlier statement groups"})
	}
	return s
}

func (s Sync) String() string {
	out := s.Class.String()
	if s.Class == comm.ClassNeighbor {
		var d []string
		if s.WaitLower {
			d = append(d, "lower")
		}
		if s.WaitUpper {
			d = append(d, "upper")
		}
		out += "(" + strings.Join(d, ",") + ")"
	}
	return out
}

func syncFrom(v comm.Verdict) Sync {
	return Sync{Class: v.Class, WaitLower: v.WaitLower, WaitUpper: v.WaitUpper,
		Inspect: v.Inspect, Deps: v.Deps, FM: v.FM}
}

// Group is a run of region statements requiring no internal
// synchronization.
type Group struct {
	Stmts []ir.Stmt
}

// RegionSched is the synchronization schedule of one region: the body of a
// sequential loop containing parallel loops (Loop != nil) or the program
// body (Loop == nil).
type RegionSched struct {
	Loop   *ir.Loop
	Groups []Group
	// After[i] is the synchronization after Groups[i]. For a loop
	// region, After[len-1] is the loop-bottom synchronization (between
	// iteration k's last group and iteration k+1's first group). For
	// the top-level region After[len-1] is always none.
	After []Sync
}

// Schedule is the whole-program synchronization schedule.
type Schedule struct {
	Prog    *ir.Program
	Info    *region.Info
	Modes   map[ir.Stmt]region.Mode
	Top     *RegionSched
	Regions map[*ir.Loop]*RegionSched
	// Baseline marks the fork-join schedule (Options.Baseline). It decides
	// how the schedule lowers (Lower) and so which executor runs it: the
	// fork-join master and team, or SPMD workers.
	Baseline bool
}

// Options control the optimizer for ablation studies (DESIGN.md A2/A3).
type Options struct {
	// Baseline disables everything: one group per statement, a barrier
	// after every parallel loop (the fork-join shape SUIF emits before
	// the paper's pass runs).
	Baseline bool
	// NoReplacement downgrades neighbor and counter synchronization to
	// barriers (elimination still runs).
	NoReplacement bool
	// NoMerging gives every statement its own group (no elimination of
	// loop-independent barriers) but still classifies boundaries and,
	// with replacement on, may weaken them.
	NoMerging bool
}

// Build computes the schedule for a program using the given analyzer.
func Build(a *comm.Analyzer, opts Options) *Schedule {
	sched := &Schedule{
		Prog:     a.Ctx.Prog,
		Info:     a.Info,
		Modes:    a.Modes,
		Regions:  map[*ir.Loop]*RegionSched{},
		Baseline: opts.Baseline,
	}
	sched.Top = buildRegion(a, sched, nil, a.Ctx.Prog.Body, nil, opts)
	return sched
}

// buildRegion schedules one region. outer lists the sequential loops
// enclosing the region (outermost first); for a loop region the loop
// itself is the last element's child, i.e. loop's enclosing chain is outer
// and the carried test uses loop as carrier.
func buildRegion(a *comm.Analyzer, sched *Schedule, loop *ir.Loop, body []ir.Stmt, outer []*ir.Loop, opts Options) *RegionSched {
	rs := &RegionSched{Loop: loop}
	inner := outer
	if loop != nil {
		inner = append(append([]*ir.Loop(nil), outer...), loop)
	}

	// Recurse into nested sequential-loop regions first.
	for _, s := range body {
		if sched.Modes[s] == region.ModeSeqLoop {
			l := s.(*ir.Loop)
			sched.Regions[l] = buildRegion(a, sched, l, l.Body, inner, opts)
		}
	}

	if opts.Baseline {
		buildBaseline(sched, rs, body)
		return rs
	}

	// elim accumulates the dependences of pairs the irregular value facts
	// helped prove None (no synchronization needed): merged-away and
	// eliminated flows leave no boundary of their own, so their evidence
	// is surfaced on the region's surviving boundary records instead.
	var elim []remarks.Dependence
	collectElim := func(v comm.Verdict) {
		if v.Class != comm.ClassNone {
			return
		}
		for _, d := range v.Deps {
			if len(d.Irreg) > 0 {
				elim = append(elim, d)
			}
		}
	}

	// Greedy grouping.
	for _, s := range body {
		if len(rs.Groups) == 0 {
			rs.Groups = append(rs.Groups, Group{Stmts: []ir.Stmt{s}})
			continue
		}
		cur := len(rs.Groups) - 1
		// Direct flows from the current group.
		direct := a.Between(rs.Groups[cur].Stmts, []ir.Stmt{s}, inner, nil)
		collectElim(direct)
		// Flows from earlier groups not covered by intervening syncs.
		earlier := comm.Verdict{Class: comm.ClassNone, Exact: true, FM: remarks.FMVerdict{Exact: true}}
		for i := 0; i < cur; i++ {
			v := a.Between(rs.Groups[i].Stmts, []ir.Stmt{s}, inner, nil)
			if v.Class == comm.ClassNone {
				collectElim(v)
				continue
			}
			if !coveredPath(rs.After[i:cur], v, true) {
				earlier = combineV(earlier, v)
			}
		}
		if direct.Class == comm.ClassNone && earlier.Class == comm.ClassNone && !opts.NoMerging {
			g := &rs.Groups[cur]
			g.Stmts = append(g.Stmts, s)
			continue
		}
		sync := promote(direct, earlier)
		if opts.NoReplacement && sync.Class != comm.ClassNone {
			sync = forceBarrier(sync)
		}
		rs.After = append(rs.After, sync)
		rs.Groups = append(rs.Groups, Group{Stmts: []ir.Stmt{s}})
	}
	if len(rs.Groups) > 0 {
		rs.After = append(rs.After, Sync{Class: comm.ClassNone})
	}

	// Loop-bottom synchronization for loop regions. The bottom boundary
	// sits directly after the LAST group, so only flows sourced there
	// count as direct for counter purposes.
	if loop != nil && len(rs.Groups) > 0 {
		n := len(rs.Groups)
		direct := comm.Verdict{Class: comm.ClassNone, Exact: true, FM: remarks.FMVerdict{Exact: true}}
		earlier := comm.Verdict{Class: comm.ClassNone, Exact: true, FM: remarks.FMVerdict{Exact: true}}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := a.Between(rs.Groups[i].Stmts, rs.Groups[j].Stmts, outer, loop)
				if v.Class == comm.ClassNone {
					collectElim(v)
					continue
				}
				// Boundaries crossed by the flow: after group
				// i (iteration k) through before group j
				// (iteration k+1), excluding the bottom
				// boundary being decided. Only the boundary
				// right after group i is at-source.
				covered := false
				for b := i; b < n-1 && !covered; b++ {
					covered = rs.After[b].covers(v, b == i)
				}
				for b := 0; b < j && !covered; b++ {
					covered = rs.After[b].covers(v, false)
				}
				if covered {
					continue
				}
				if i == n-1 {
					direct = combineV(direct, v)
				} else {
					earlier = combineV(earlier, v)
				}
			}
		}
		sync := promote(direct, earlier)
		if opts.NoReplacement && sync.Class != comm.ClassNone {
			sync = forceBarrier(sync)
		}
		rs.After[n-1] = sync
	}
	// Surface the eliminated-pair evidence on the region's last boundary
	// (the loop bottom, or the trailing end-of-region record).
	if len(elim) > 0 && len(rs.After) > 0 {
		last := &rs.After[len(rs.After)-1]
		last.Deps = append(last.Deps, elim...)
	}
	return rs
}

// buildBaseline produces the fork-join shape: one group per statement and
// a barrier after every parallel loop and at the bottom of loop regions.
func buildBaseline(sched *Schedule, rs *RegionSched, body []ir.Stmt) {
	for _, s := range body {
		rs.Groups = append(rs.Groups, Group{Stmts: []ir.Stmt{s}})
		if sched.Modes[s] == region.ModeParallel {
			rs.After = append(rs.After, Sync{Class: comm.ClassBarrier,
				Note: "baseline fork-join join barrier"})
		} else {
			rs.After = append(rs.After, Sync{Class: comm.ClassNone})
		}
	}
	// The bottom boundary of a loop region keeps whatever the last
	// statement required (a barrier if it was a parallel loop), so no
	// extra bottom barrier is added in the baseline.
}

// coveredPath reports whether any sync along the crossed boundaries covers
// the flow; firstAtSource marks whether syncs[0] sits directly after the
// flow's source group.
func coveredPath(syncs []Sync, v comm.Verdict, firstAtSource bool) bool {
	for i, s := range syncs {
		if s.covers(v, firstAtSource && i == 0) {
			return true
		}
	}
	return false
}

func combineV(a, b comm.Verdict) comm.Verdict {
	out := comm.Verdict{
		Exact:     a.Exact && b.Exact,
		WaitLower: a.WaitLower || b.WaitLower,
		WaitUpper: a.WaitUpper || b.WaitUpper,
		Pairs:     append(append([]string(nil), a.Pairs...), b.Pairs...),
		Deps:      append(append([]remarks.Dependence(nil), a.Deps...), b.Deps...),
	}
	out.Class = comm.MixClass(a.Class, b.Class)
	if out.Class == comm.ClassInspector {
		out.Inspect = append(append([]comm.InspectPair(nil), a.Inspect...), b.Inspect...)
	}
	out.FM = a.FM
	out.FM.Add(b.FM)
	out.FM.Feasible = a.FM.Feasible || b.FM.Feasible
	out.FM.Exact = a.FM.Exact && b.FM.Exact
	return out
}

// forceBarrier is the -noreplace ablation: a cheaper chosen primitive is
// replaced by a barrier, recording what the optimizer would have used.
func forceBarrier(s Sync) Sync {
	out := Sync{Class: comm.ClassBarrier, Deps: s.Deps, FM: s.FM, Note: s.Note}
	if s.Class != comm.ClassBarrier {
		out.Rejected = append(append([]remarks.Alternative(nil), s.Rejected...),
			remarks.Alternative{Primitive: s.Class.String(),
				Reason: "ablation: synchronization replacement disabled"})
	} else {
		out.Rejected = s.Rejected
	}
	return out
}

// StaticCounts tallies synchronization sites by class across the whole
// schedule (the paper's static table).
type StaticCounts struct {
	Barriers   int
	Counters   int
	Neighbors  int
	Inspectors int
	None       int
}

// Static returns the static synchronization-site counts.
func (s *Schedule) Static() StaticCounts {
	var c StaticCounts
	for _, site := range s.Lower().Sites {
		switch site.Class {
		case comm.ClassBarrier:
			c.Barriers++
		case comm.ClassCounter:
			c.Counters++
		case comm.ClassNeighbor:
			c.Neighbors++
		case comm.ClassInspector:
			c.Inspectors++
		default:
			c.None++
		}
	}
	return c
}

// Dump renders the schedule for diagnostics.
func (s *Schedule) Dump() string {
	var sb strings.Builder
	var dump func(rs *RegionSched, depth int)
	dump = func(rs *RegionSched, depth int) {
		ind := strings.Repeat("  ", depth)
		for i, g := range rs.Groups {
			fmt.Fprintf(&sb, "%sgroup %d:\n", ind, i)
			for _, st := range g.Stmts {
				fmt.Fprintf(&sb, "%s  %s [%s]\n", ind, ir.StmtString(st), s.Modes[st])
				if s.Modes[st] == region.ModeSeqLoop {
					dump(s.Regions[st.(*ir.Loop)], depth+2)
				}
			}
			label := "sync"
			if rs.Loop != nil && i == len(rs.Groups)-1 {
				label = "loop-bottom sync"
			}
			fmt.Fprintf(&sb, "%s%s: %s\n", ind, label, rs.After[i])
		}
	}
	dump(s.Top, 0)
	return sb.String()
}
