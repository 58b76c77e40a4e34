package certify

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/decomp"
	"repro/internal/ir"
	"repro/internal/irreg"
	"repro/internal/region"
)

// Options configure an analysis. The certifier recomputes the decomposition
// plan and region classification itself, so the caller only names the
// decomposition kind the schedule was built for.
type Options struct {
	Decomp decomp.Kind
}

// Analysis holds the cross-processor flows recomputed for one program under
// one step program's group structure. The flows depend only on how
// statements are grouped, not on which primitives sit on the boundaries or
// where the sync steps stand, so one Analysis can Check many variants of the
// same grouping (e.g. every DropSite sabotage) without re-running the solver.
type Analysis struct {
	prog    *ir.Program
	dec     decomp.Kind
	regions []regionFlows // in site order
	// OracleErrs records FM/enumeration disagreements seen during the
	// analysis — evidence of a decision-procedure bug, surfaced so
	// callers can refuse to trust the certificate.
	OracleErrs []error
}

// regionFlows are the flows between one region's groups.
type regionFlows struct {
	loop   *ir.Loop
	groups int
	flows  []*Flow
}

// Violation is one flow the schedule fails to order, with a concrete
// counterexample witness when one exists in the search box.
type Violation struct {
	Region  string    `json:"region"`
	From    int       `json:"from"`
	To      int       `json:"to"`
	Carried bool      `json:"carried,omitempty"`
	Class   FlowClass `json:"class"`
	Variant string    `json:"variant"`
	Pairs   []string  `json:"pairs,omitempty"`
	Witness *Witness  `json:"witness,omitempty"`
}

func (v Violation) String() string {
	kind := "flow"
	if v.Carried {
		kind = "carried flow"
	}
	s := fmt.Sprintf("%s: %s group %d -> group %d (%s, %s) unordered",
		v.Region, kind, v.From, v.To, v.Class, v.Variant)
	for _, p := range v.Pairs {
		s += "\n    " + p
	}
	if v.Witness != nil {
		s += "\n    witness: " + v.Witness.String()
	}
	return s
}

// Certificate is the machine-readable record of a successful check: every
// sync site of the schedule and, for every recomputed flow, the primitive
// that orders each of its geometry variants.
type Certificate struct {
	Program string     `json:"program"`
	Decomp  string     `json:"decomp"`
	Sites   []SiteCert `json:"sites"`
	Flows   []FlowCert `json:"flows"`
}

// SiteCert describes one sync site of the certified schedule.
type SiteCert struct {
	Id       int      `json:"id"`
	Region   string   `json:"region"`
	Boundary int      `json:"boundary"`
	Kind     string   `json:"kind"`
	Waits    []string `json:"waits,omitempty"`
}

// FlowCert records one recomputed flow and how each variant is ordered.
type FlowCert struct {
	Region    string     `json:"region"`
	From      int        `json:"from"`
	To        int        `json:"to"`
	Carried   bool       `json:"carried,omitempty"`
	Class     string     `json:"class"`
	Waits     []string   `json:"waits,omitempty"`
	Pairs     []string   `json:"pairs,omitempty"`
	OrderedBy []OrderRec `json:"ordered_by"`
}

// OrderRec names the primitive that orders one variant of a flow: the
// boundary it sits on, the iteration it is crossed in (0 = producing
// iteration, 1 = consuming iteration of a carried flow), and its global
// sync-site id. A fork-join dispatch has no site: its record names the
// group whose loop it releases, and site -1.
type OrderRec struct {
	Variant   string `json:"variant"`
	Boundary  int    `json:"boundary"`
	Iteration int    `json:"iteration,omitempty"`
	Primitive string `json:"primitive"`
	Site      int    `json:"site"`
	// Conditional marks an inspector-ordered variant: the static proof
	// covers the scan's precondition (every pair scan-resolvable), and
	// the ordering itself holds given the inspector's runtime conflict
	// resolution at the named site.
	Conditional bool `json:"conditional,omitempty"`
}

// Analyze recomputes every cross-processor flow of prog between the
// statement groups the sites of p delimit: pairwise loop-independent flows
// between a region's groups and all-pairs carried flows around its
// sequential loop, region by region, with verdicts from its own solver
// systems.
func Analyze(prog *ir.Program, p *Program, opts Options) *Analysis {
	plan := decomp.Build(prog, opts.Decomp)
	info := region.Classify(prog, plan.Wavefront)
	a := newAnalyzer(prog, plan, info.Modes)
	// The certifier recomputes the irregular-access lattice itself rather
	// than trusting the optimizer's copy.
	a.facts = irreg.Analyze(prog, info, 1)
	an := &Analysis{prog: prog, dec: opts.Decomp}
	for _, lv := range p.levels() {
		r := regionFlows{loop: lv.loop, groups: len(lv.groups)}
		add := func(f Flow, i, j int, carried bool) {
			if f.Class != FlowNone {
				f.From, f.To, f.Carried = i, j, carried
				r.flows = append(r.flows, &f)
			}
		}
		for i, x := range lv.groups {
			for j := i + 1; j < len(lv.groups); j++ {
				add(a.between(x, lv.groups[j], lv.inner, nil), i, j, false)
			}
		}
		if lv.loop != nil {
			outer := lv.inner[:len(lv.inner)-1]
			for i, x := range lv.groups {
				for j, y := range lv.groups {
					add(a.between(x, y, outer, lv.loop), i, j, true)
				}
			}
		}
		an.regions = append(an.regions, r)
	}
	an.OracleErrs = a.oracleErrs
	return an
}

// Check certifies p against the analysis. p must share the group structure
// the analysis was computed from (the original program, a DropSite variant
// of it, or a re-lowering of the same groups). It returns the certificate
// on success, or the list of unordered flows.
func (an *Analysis) Check(p *Program) (*Certificate, []Violation) {
	cert := &Certificate{Program: an.prog.Name, Decomp: an.dec.String(), Flows: []FlowCert{}}
	for id, s := range p.Sites {
		cert.Sites = append(cert.Sites, SiteCert{
			Id: id, Region: regionLabel(s.Loop), Boundary: s.Index,
			Kind: s.Kind.String(), Waits: waitList(s.Kind == KindNeighbor, s.WaitLower, s.WaitUpper),
		})
	}
	var viols []Violation
	lvs := p.levels()
	for i, r := range an.regions {
		label := regionLabel(r.loop)
		if i >= len(lvs) || lvs[i].loop != r.loop || len(lvs[i].groups) != r.groups {
			viols = append(viols, Violation{Region: label, Variant: "general",
				Pairs: []string{"schedule group structure differs from the analyzed schedule"}})
			continue
		}
		for _, f := range r.flows {
			fc := FlowCert{
				Region: label, From: f.From, To: f.To, Carried: f.Carried,
				Class: f.Class.String(),
				Waits: waitList(f.Class == FlowNeighbor, f.Lower, f.Upper),
				Pairs: f.Pairs,
			}
			ok := true
			for _, v := range variantsOf(f) {
				rec, ordered := p.order(lvs[i], f, v)
				if !ordered {
					ok = false
					viols = append(viols, Violation{
						Region: label, From: f.From, To: f.To, Carried: f.Carried,
						Class: f.Class, Variant: v.String(), Pairs: f.Pairs,
						Witness: witnessFor(an.prog, f),
					})
					continue
				}
				fc.OrderedBy = append(fc.OrderedBy, rec)
			}
			if ok {
				cert.Flows = append(cert.Flows, fc)
			}
		}
	}
	if len(viols) > 0 {
		return nil, viols
	}
	return cert, nil
}

// Certify analyzes and checks in one step. The error reports oracle
// disagreements: when FM and enumeration contradict each other the solver
// itself is suspect and neither the certificate nor the violations should
// be trusted.
func Certify(prog *ir.Program, p *Program, opts Options) (*Certificate, []Violation, error) {
	an := Analyze(prog, p, opts)
	cert, viols := an.Check(p)
	return cert, viols, errors.Join(an.OracleErrs...)
}

func regionLabel(l *ir.Loop) string {
	if l == nil {
		return "<top>"
	}
	return "loop " + l.Index
}

func waitList(neighbor, lower, upper bool) []string {
	if !neighbor {
		return nil
	}
	var out []string
	if lower {
		out = append(out, "lower")
	}
	if upper {
		out = append(out, "upper")
	}
	return out
}

// RenderViolations formats violations one per line for diagnostics.
func RenderViolations(viols []Violation) string {
	var sb strings.Builder
	for _, v := range viols {
		sb.WriteString("  " + v.String() + "\n")
	}
	return sb.String()
}
