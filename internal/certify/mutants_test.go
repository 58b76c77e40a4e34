package certify_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/certify"
	"repro/internal/ir"
)

// mutant is one step program with a single ordering taken away:
//
//	(a) one poster dropped from a counter site's Producers, Master or All;
//	(b) one fork-join dispatch deleted;
//	(c) one sync step moved one step earlier, past a compute step.
type mutant struct {
	kind  byte
	label string
	site  int // the site mutated, -1 for a dispatch
	prog  *certify.Program
	// relied reports whether the original certificate names the ordering
	// the mutant takes away for some flow: a flow produced by the dropped
	// poster or by the step the sync moved past is ordered by that site, or
	// a flow is ordered by the deleted dispatch.
	relied bool
}

// ordering is what a certificate says each sync step and dispatch orders:
// the steps producing the flows each site orders, and the (region, group)
// of each dispatch that orders a flow.
type ordering struct {
	bySite     map[int]map[int]bool
	dispatches map[string]bool
}

// orderingOf reads an accepted program's certificate against its flows'
// producing statements.
func orderingOf(c checked) ordering {
	stepOf := map[ir.Stmt]int{}
	for i, st := range c.prog.Steps {
		if _, seen := stepOf[st.Stmt]; !seen && st.Stmt != nil {
			stepOf[st.Stmt] = i
		}
	}
	o := ordering{bySite: map[int]map[int]bool{}, dispatches: map[string]bool{}}
	prod := c.an.Producing()
	for i, f := range c.cert.Flows {
		for _, rec := range f.OrderedBy {
			if rec.Primitive == "dispatch" {
				o.dispatches[fmt.Sprint(f.Region, rec.Boundary)] = true
				continue
			}
			if o.bySite[rec.Site] == nil {
				o.bySite[rec.Site] = map[int]bool{}
			}
			for _, s := range prod[i] {
				o.bySite[rec.Site][stepOf[s]] = true
			}
		}
	}
	return o
}

// placeOf returns the region label and group of step i.
func placeOf(p *certify.Program, i int) string {
	var loops []*ir.Loop
	for _, st := range p.Steps[:i] {
		switch st.Kind {
		case certify.StepSeq:
			loops = append(loops, st.Stmt.(*ir.Loop))
		case certify.StepNext:
			loops = loops[:len(loops)-1]
		}
	}
	var loop *ir.Loop
	label := "<top>"
	if len(loops) > 0 {
		loop = loops[len(loops)-1]
		label = "loop " + loop.Index
	}
	g := -1
	for _, s := range p.Sites {
		if s.Loop == loop && s.Start <= i {
			g++
		}
	}
	return fmt.Sprint(label, g)
}

// mutantsOf lists every mutant of an accepted program.
func mutantsOf(c checked) []mutant {
	p, o := c.prog, orderingOf(c)
	var out []mutant
	withSites := func() *certify.Program {
		return &certify.Program{Steps: p.Steps, Sites: slices.Clone(p.Sites)}
	}
	for id, s := range p.Sites {
		if s.Kind != certify.KindCounter {
			continue
		}
		for j, i := range s.Producers {
			q := withSites()
			q.Sites[id].Producers = slices.Delete(slices.Clone(s.Producers), j, j+1)
			out = append(out, mutant{'a', fmt.Sprintf("site %d without producer step %d", id, i), id, q, o.bySite[id][i]})
		}
		if s.Master {
			q := withSites()
			q.Sites[id].Master = false
			master := false
			for i := range o.bySite[id] {
				master = master || p.Steps[i].Kind == certify.StepMaster
			}
			out = append(out, mutant{'a', fmt.Sprintf("site %d without master", id), id, q, master})
		}
		if s.All {
			q := withSites()
			q.Sites[id].All = false
			out = append(out, mutant{'a', fmt.Sprintf("site %d without all", id), id, q, len(o.bySite[id]) > 0})
		}
	}
	for d, st := range p.Steps {
		if st.Kind != certify.StepDispatch {
			continue
		}
		q := &certify.Program{Steps: slices.Delete(slices.Clone(p.Steps), d, d+1), Sites: slices.Clone(p.Sites)}
		shift := func(i int) int {
			if i > d {
				return i - 1
			}
			return i
		}
		for k := range q.Sites {
			s := &q.Sites[k]
			s.Start = shift(s.Start)
			s.Producers = slices.Clone(s.Producers)
			for j := range s.Producers {
				s.Producers[j] = shift(s.Producers[j])
			}
		}
		out = append(out, mutant{'b', fmt.Sprintf("without dispatch step %d", d), -1, q, o.dispatches[placeOf(p, d)]})
	}
	for i, st := range p.Steps {
		if st.Kind != certify.StepSync || i == 0 {
			continue
		}
		switch p.Steps[i-1].Kind {
		case certify.StepTeam, certify.StepMaster, certify.StepEvery, certify.StepRelay:
		default:
			continue
		}
		q := withSites()
		q.Steps = slices.Clone(p.Steps)
		q.Steps[i-1], q.Steps[i] = q.Steps[i], q.Steps[i-1]
		for k := range q.Sites {
			if j := slices.Index(q.Sites[k].Producers, i-1); j >= 0 {
				q.Sites[k].Producers = slices.Clone(q.Sites[k].Producers)
				q.Sites[k].Producers[j] = i
			}
		}
		out = append(out, mutant{'c', fmt.Sprintf("site %d synced before step %d", st.Site, i-1), st.Site, q, o.bySite[st.Site][i-1]})
	}
	return out
}

// TestStepMutants: a mutant that takes away an ordering some flow relies on
// is a mistake a lowering can make, and the certifier must see it in the
// steps. Each mutant kind is rejected on some kernel; a lowering that drops
// tred2like's Master poster (its counter then posts nothing) is rejected; a
// mutant that takes away an ordering no flow relies on is accepted; and a
// rejection carries a witness wherever dropping the same site does (the
// irregular kernels' index-array flows have none).
func TestStepMutants(t *testing.T) {
	rejected := map[byte]int{}
	total, masterDrop := 0, false
	for _, c := range checkedPrograms(t) {
		if c.cert == nil {
			t.Fatalf("%s %s rejected:\n%s", c.kernel, c.label, certify.RenderViolations(c.viols))
		}
		for _, m := range mutantsOf(c) {
			total++
			_, viols := c.an.Check(m.prog)
			if c.kernel == "tred2like" && c.label == "opt" && m.label == "site 1 without master" {
				masterDrop = len(viols) > 0
			}
			switch {
			case len(viols) == 0:
			case !m.relied:
				t.Errorf("%s %s (%c) %s: nothing relies on what it removes, yet rejected:\n%s",
					c.kernel, c.label, m.kind, m.label, certify.RenderViolations(viols))
			case !hasWitness(viols) && (m.site < 0 || witnessOnDrop(c, m.site)):
				t.Errorf("%s %s (%c) %s: rejected without a witness:\n%s",
					c.kernel, c.label, m.kind, m.label, certify.RenderViolations(viols))
			default:
				rejected[m.kind]++
			}
		}
	}
	if !masterDrop {
		t.Error("tred2like opt with site 1's Master poster dropped was not rejected")
	}
	for _, kind := range []byte{'a', 'b', 'c'} {
		if rejected[kind] == 0 {
			t.Errorf("no (%c) mutant rejected on any kernel", kind)
		}
	}
	t.Logf("%d mutants; rejected: (a) %d, (b) %d, (c) %d", total, rejected['a'], rejected['b'], rejected['c'])
}

func witnessOnDrop(c checked, site int) bool {
	_, viols := c.an.Check(c.prog.DropSite(site))
	return hasWitness(viols)
}
