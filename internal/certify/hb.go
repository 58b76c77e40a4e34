package certify

import (
	"math"
	"slices"
)

// Ordering on step positions. A flow of a region is produced by some of the
// region's top-level statements in one group and consumed by some in a later
// group, or, for a carried flow, in any group of the next iteration of the
// region's loop. The flow crosses the region's own sync and dispatch steps
// that sit after every producing step and before every consuming step: for
// a carried flow, after the producers in the producing iteration or before
// the consumers in the consuming one. A crossed step orders the flow when:
//
//   - a barrier: always (every worker arrives);
//   - a counter: in the producing iteration, when every producing step is
//     among its posters — a team or relay step it lists, a master step with
//     Master set, or any step with All set;
//   - a neighbor sync: it is posted by every worker but waited
//     directionally, so only neighbor-class flows whose wait direction it
//     includes (checked per direction variant);
//   - an inspector: it is posted by every worker, but its runtime waits
//     cover exactly its recorded scan pairs, so only flows whose pairs are
//     all in that list and all provably scan-resolvable — conditionally, on
//     the scan's runtime conflict resolution;
//   - a dispatch: when every producing step runs on the master, which
//     releases every worker only after them.
//
// The certificate names the last crossed sync step that orders the flow, the
// one nearest its consumption, and a dispatch only when no sync step does.

// crossing is one step along a flow's path.
type crossing struct {
	step int
	iter int // 0 = producing iteration, 1 = consuming iteration
}

// variant is one pair-geometry of a flow that must be ordered.
type variant int

const (
	// varLower: consumer one block above producer; C waits on its lower
	// neighbor.
	varLower variant = iota
	// varUpper: consumer one block below producer; C waits on its upper
	// neighbor.
	varUpper
	// varGeneral: arbitrary processor pair.
	varGeneral
)

func (v variant) String() string {
	switch v {
	case varLower:
		return "wait-lower"
	case varUpper:
		return "wait-upper"
	default:
		return "general"
	}
}

// variantsOf lists the geometries a flow requires ordering for.
func variantsOf(f *Flow) []variant {
	if f.Class == FlowNeighbor {
		var out []variant
		if f.Lower {
			out = append(out, varLower)
		}
		if f.Upper {
			out = append(out, varUpper)
		}
		return out
	}
	return []variant{varGeneral}
}

// crossings lists the sync and dispatch steps of lv that flow f crosses, in
// path order.
func (lv *level) crossings(f *Flow) []crossing {
	last, first := -1, math.MaxInt
	for _, s := range f.prod {
		last = max(last, lv.span[s][1])
	}
	for _, s := range f.cons {
		first = min(first, lv.span[s][0])
	}
	var out []crossing
	for _, m := range lv.marks {
		if m > last && (f.Carried || m < first) {
			out = append(out, crossing{step: m})
		}
	}
	if f.Carried {
		for _, m := range lv.marks {
			if m < first {
				out = append(out, crossing{step: m, iter: 1})
			}
		}
	}
	return out
}

// order returns the record of the step that orders flow f's variant v:
// the last crossed sync step whose primitive orders it, else the last
// crossed dispatch that does.
func (p *Program) order(lv *level, f *Flow, v variant) (OrderRec, bool) {
	cs := lv.crossings(f)
	dispatch := -1
	for k := len(cs) - 1; k >= 0; k-- {
		st := p.Steps[cs[k].step]
		if st.Kind == StepDispatch {
			if dispatch < 0 && p.everyProducer(lv, f, func(i int) bool { return p.Steps[i].Kind == StepMaster }) {
				dispatch = k
			}
			continue
		}
		if s := &p.Sites[st.Site]; p.orders(lv, s, cs[k], f, v) {
			return OrderRec{Variant: v.String(), Boundary: s.Index, Iteration: cs[k].iter,
				Primitive: s.Kind.String(), Site: st.Site, Conditional: s.Kind == KindInspector}, true
		}
	}
	if dispatch < 0 {
		return OrderRec{}, false
	}
	c := cs[dispatch]
	return OrderRec{Variant: v.String(), Boundary: lv.group(c.step), Iteration: c.iter,
		Primitive: "dispatch", Site: -1}, true
}

// orders reports whether site s, crossed at c, orders flow f's variant v.
func (p *Program) orders(lv *level, s *Site, c crossing, f *Flow, v variant) bool {
	switch s.Kind {
	case KindBarrier:
		return true
	case KindCounter:
		// Posters in the consuming iteration are that iteration's producers.
		return c.iter == 0 && (s.All || p.everyProducer(lv, f, func(i int) bool {
			return s.Master && p.Steps[i].Kind == StepMaster || slices.Contains(s.Producers, i)
		}))
	case KindNeighbor:
		if f.Class != FlowNeighbor {
			return false
		}
		switch v {
		case varLower:
			return s.WaitLower
		case varUpper:
			return s.WaitUpper
		}
	case KindInspector:
		// Requiring every pair of the flow in this site's scan list means
		// an unrelated inspector downstream can never mask a dropped site.
		if !f.Inspectable || len(f.inspectKeys) == 0 {
			return false
		}
		for _, k := range f.inspectKeys {
			if !slices.Contains(s.Inspect, k) {
				return false
			}
		}
		return true
	}
	return false
}

// everyProducer reports whether ok holds for the first step of every
// statement producing f.
func (p *Program) everyProducer(lv *level, f *Flow, ok func(step int) bool) bool {
	for _, s := range f.prod {
		if !ok(lv.span[s][0]) {
			return false
		}
	}
	return true
}
