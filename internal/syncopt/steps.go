package syncopt

import (
	"repro/internal/comm"
	"repro/internal/ir"
	"repro/internal/region"
)

// StepKind is the operation of one step of a lowered schedule.
type StepKind uint8

const (
	// StepParallel runs the worker's slice of Loop.
	StepParallel StepKind = iota
	// StepReplicated runs Stmts on every worker, with identical inputs.
	StepReplicated
	// StepGuarded runs Stmts on worker 0 only.
	StepGuarded
	// StepWavefront runs the worker's chunk of Loop in a rank-order relay.
	StepWavefront
	// StepDispatch is the fork-join master releasing the team into the
	// parallel loop that follows.
	StepDispatch
	// StepSeq enters sequential Loop at its lower bound, or jumps to Jump,
	// the step after its StepNext, when the loop has no iteration.
	StepSeq
	// StepNext advances Loop's index and, while it is within the upper
	// bound, jumps back to Jump: the step after its StepSeq.
	StepNext
	// StepSync is the synchronization of Sites[Site].
	StepSync
)

// Step is one operation of a lowered schedule.
type Step struct {
	Kind StepKind
	// Stmts is a replicated or guarded step's statement, as a one-element
	// slice of its group.
	Stmts []ir.Stmt
	// Loop is the loop of a parallel, wavefront, seq or next step.
	Loop       *ir.Loop
	Jump, Site int
}

// Site is one region boundary: boundary Index of Region, after group
// Index. Its position in Steps.Sites is its global site id minus one — the
// numbering of the remarks, the executor's per-site stats, watchdog labels
// and Config.SabotageEdge, and certify.DropSite.
type Site struct {
	*Sync
	Region *RegionSched
	Index  int
	// Producers, Master and All are the workers that produce shared data in
	// the group the site follows, the posters of a counter site: those with
	// iterations in the loops of the steps Producers lists, plus worker 0
	// when the group has a guarded step, or every worker when it has a
	// sequential loop. Replicated steps produce nothing shared.
	Producers   []int
	Master, All bool
	// Start is the index of the group's first step: where the certifier
	// splits the region's steps into groups, wherever the sync step stands.
	Start int
}

// Steps is a schedule lowered into a flat program that every worker runs.
type Steps struct {
	Steps []Step
	Sites []Site
}

// Lower flattens the schedule into steps, numbering its sites in global
// order: a region's boundaries, then the regions of its sequential loops
// in statement order, from the top region down. A boundary the schedule
// leaves unsynchronized keeps its site but gets no step. forkJoin lowers
// for the fork-join executor: a dispatch precedes every parallel loop, and
// replicated statements and wavefront loops run on the master.
func (s *Schedule) Lower(forkJoin bool) *Steps {
	p := &Steps{}
	emit := func(st Step) int {
		p.Steps = append(p.Steps, st)
		return len(p.Steps) - 1
	}
	var lower func(rs *RegionSched)
	lower = func(rs *RegionSched) {
		base := len(p.Sites)
		for i := range rs.After {
			p.Sites = append(p.Sites, Site{Sync: &rs.After[i], Region: rs, Index: i})
		}
		for gi, g := range rs.Groups {
			start := len(p.Steps)
			var prod []int
			var master, all bool
			for i, st := range g.Stmts {
				mode := s.Modes[st]
				switch {
				case mode == region.ModeParallel:
					if forkJoin {
						emit(Step{Kind: StepDispatch})
					}
					prod = append(prod, emit(Step{Kind: StepParallel, Loop: st.(*ir.Loop)}))
				case mode == region.ModeWavefront && !forkJoin:
					prod = append(prod, emit(Step{Kind: StepWavefront, Loop: st.(*ir.Loop)}))
				case mode == region.ModeReplicated && !forkJoin:
					emit(Step{Kind: StepReplicated, Stmts: g.Stmts[i : i+1]})
				case mode == region.ModeSeqLoop:
					l := st.(*ir.Loop)
					seq := emit(Step{Kind: StepSeq, Loop: l})
					lower(s.Regions[l])
					p.Steps[seq].Jump = emit(Step{Kind: StepNext, Loop: l, Jump: seq + 1}) + 1
					all = true
				default:
					emit(Step{Kind: StepGuarded, Stmts: g.Stmts[i : i+1]})
					master = true
				}
			}
			site := &p.Sites[base+gi]
			site.Producers, site.Master, site.All, site.Start = prod, master, all, start
			if site.Class != comm.ClassNone {
				emit(Step{Kind: StepSync, Site: base + gi})
			}
		}
	}
	lower(s.Top)
	return p
}
