// Package certify is an independent static certifier for the step programs
// synchronization schedules are lowered into. Given only the IR and a step
// program in this package's own vocabulary — the compute, dispatch, loop and
// sync steps every worker runs, and the table of sync sites that splits them
// into statement groups — it rebuilds every cross-processor data flow between
// those groups from first principles — fresh Fourier-Motzkin systems
// constructed directly on internal/linear, cross-checked by bounded integer
// enumeration as a second oracle — and certifies that a step the flow
// crosses orders it. It shares no code with internal/comm and none of
// internal/syncopt's coverage logic or lowering, so a bug in the optimizer
// and a bug here are independent events; the program is accepted only when
// both agree it is sound.
//
// On success Certify emits a machine-readable JSON certificate; on failure
// it reports each unordered flow with a concrete counterexample witness
// (processor pair, iteration vector, array element) extracted by integer
// enumeration from the flow's own feasibility system.
package certify

import (
	"slices"

	"repro/internal/ir"
)

// Kind is a boundary synchronization primitive, ordered by strength.
type Kind int

const (
	KindNone Kind = iota
	KindNeighbor
	KindCounter
	// KindInspector is a runtime inspector/executor boundary: every worker
	// posts, and a deterministic scan of the (frozen) index arrays decides
	// which workers must wait on which. Certification of flows ordered by
	// an inspector is conditional: the certifier re-derives, from its own
	// irregular-access facts, that every pair of the flow is one the scan
	// can resolve, and records the certificate as valid given the scan's
	// runtime conflict resolution.
	KindInspector
	KindBarrier
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindNeighbor:
		return "neighbor"
	case KindCounter:
		return "counter"
	case KindInspector:
		return "inspector"
	case KindBarrier:
		return "barrier"
	default:
		return "Kind(?)"
	}
}

// StepKind is the operation of one step. A compute step's kind says which
// workers run it.
type StepKind uint8

const (
	// StepTeam runs every worker's slice of the parallel loop Stmt.
	StepTeam StepKind = iota
	// StepMaster runs Stmt on worker 0 only.
	StepMaster
	// StepEvery runs Stmt on every worker, with identical inputs.
	StepEvery
	// StepRelay runs every worker's chunk of loop Stmt in rank order.
	StepRelay
	// StepDispatch is worker 0 releasing the team: every worker waits until
	// worker 0 reaches it.
	StepDispatch
	// StepSeq and StepNext open and close the sequential loop Stmt; the
	// steps between them are its region's.
	StepSeq
	StepNext
	// StepSync is the synchronization of Sites[Site].
	StepSync
)

// Step is one operation of a step program.
type Step struct {
	Kind StepKind
	// Stmt is the top-level statement of its region a compute step runs, or
	// the loop a StepSeq or StepNext opens or closes.
	Stmt ir.Stmt
	Site int
}

// Site is one region boundary: the synchronization after group Index of the
// region of sequential loop Loop (nil: the program body). A loop region's
// last boundary is its loop bottom, between consecutive iterations.
type Site struct {
	Kind Kind
	// WaitLower/WaitUpper: for KindNeighbor, the directions a worker
	// waits on (its rank-1 / rank+1 neighbor).
	WaitLower, WaitUpper bool
	// Inspect: for KindInspector, the access pairs the boundary's runtime
	// scan resolves. The inspector orders a flow only when this list
	// includes every pair of the flow.
	Inspect []InspectKey
	// Producers, Master and All are a counter's posters: the workers with
	// iterations in the loops of the steps Producers lists, worker 0, and
	// every worker.
	Producers   []int
	Master, All bool
	Loop        *ir.Loop
	Index       int
	// Start is the index of group Index's first step: a region's sites
	// split its steps into the groups flows are recomputed between.
	Start int
}

// Program is a step program every worker runs. Sites[id] is the boundary
// with 0-based global sync-site id id: the executor's SabotageEdge minus one.
type Program struct {
	Steps []Step
	Sites []Site
}

// DropSite returns a copy of the program with the site of the given id
// demoted to KindNone — the static analogue of the executor's SabotageEdge
// fault injection. Its sync step stays and orders nothing.
func (p *Program) DropSite(id int) *Program {
	out := &Program{Steps: p.Steps, Sites: slices.Clone(p.Sites)}
	if id >= 0 && id < len(out.Sites) {
		out.Sites[id].Kind = KindNone
	}
	return out
}

// level is one region as its own steps see it. Steps of nested regions are
// not in it: they run only when their loop has an iteration.
type level struct {
	loop *ir.Loop
	// inner lists the sequential loops enclosing the region's statements,
	// outermost first, the region's own loop last.
	inner []*ir.Loop
	// groups are the region's top-level statements split at its sites'
	// starts; span gives each statement's first and last step (a
	// sequential loop spans its StepSeq to its StepNext).
	groups [][]ir.Stmt
	starts []int
	span   map[ir.Stmt][2]int
	// marks are the region's sync and dispatch steps, ascending.
	marks []int
}

// levels splits the program into its regions: the program body first, then
// each sequential loop's in program order — the order of their sites.
func (p *Program) levels() []*level {
	starts := map[*ir.Loop][]int{}
	for _, s := range p.Sites {
		starts[s.Loop] = append(starts[s.Loop], s.Start)
	}
	open := func(l *ir.Loop, inner []*ir.Loop) *level {
		return &level{loop: l, inner: inner, starts: starts[l],
			groups: make([][]ir.Stmt, len(starts[l])), span: map[ir.Stmt][2]int{}}
	}
	out := []*level{open(nil, nil)}
	stack := []*level{out[0]}
	for i, st := range p.Steps {
		cur := stack[len(stack)-1]
		switch st.Kind {
		case StepSync, StepDispatch:
			cur.marks = append(cur.marks, i)
		case StepNext:
			stack = stack[:len(stack)-1]
			up := stack[len(stack)-1]
			up.span[st.Stmt] = [2]int{up.span[st.Stmt][0], i}
		default:
			g := cur.group(i)
			cur.groups[g] = append(cur.groups[g], st.Stmt)
			cur.span[st.Stmt] = [2]int{i, i}
			if st.Kind == StepSeq {
				l := st.Stmt.(*ir.Loop)
				sub := open(l, append(slices.Clone(cur.inner), l))
				out = append(out, sub)
				stack = append(stack, sub)
			}
		}
	}
	return out
}

// group returns the index of the group step i belongs to.
func (lv *level) group(i int) int {
	g := 0
	for g+1 < len(lv.starts) && lv.starts[g+1] <= i {
		g++
	}
	return g
}
