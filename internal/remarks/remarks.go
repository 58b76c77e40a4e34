// Package remarks is the optimization-provenance layer: LLVM-style
// structured remarks explaining, per synchronization site, what the
// barrier-elimination pass decided and why. Each remark carries the site's
// global id (the watchdog/sanitizer/certifier numbering), a source
// position, the region and statement-group pair forming the boundary, the
// typed access-pair dependences that forced the decision, the
// Fourier-Motzkin evidence behind each one (systems solved, variables
// eliminated, inequalities generated and retained, feasibility), the
// primitive chosen, and the ordered list of cheaper alternatives the pass
// tried and why each was rejected.
//
// The package is a leaf: it imports only internal/ir (for positions), so
// both the analysis side (comm, syncopt) and the runtime side (exec) can
// speak its vocabulary without creating import cycles. The static↔runtime
// join — remarks × per-site wait attribution — lives in report.go.
package remarks

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Primitive spellings, ordered cheapest first. They mirror
// comm.Class.String()/certify.Kind.String() so cross-layer comparisons are
// plain string equality.
const (
	PrimNone      = "none"
	PrimNeighbor  = "neighbor"
	PrimCounter   = "counter"
	PrimInspector = "inspector"
	PrimBarrier   = "barrier"
)

// ladder is the cost order used when merging rejection lists. An
// inspector (a runtime scan of the actual index arrays that certifies
// "no conflict" or synthesizes point-to-point waits) is cheaper than a
// barrier but dearer than the static primitives.
var ladder = []string{PrimNone, PrimNeighbor, PrimCounter, PrimInspector, PrimBarrier}

func ladderRank(p string) int {
	for i, l := range ladder {
		if l == p {
			return i
		}
	}
	return len(ladder)
}

// FMVerdict is the Fourier-Motzkin evidence behind one decision: how much
// solver work it took and what the verdict was.
type FMVerdict struct {
	// Feasible reports whether cross-processor communication may occur
	// (the reason synchronization is kept); false means the systems that
	// would witness communication are infeasible and the sync can go.
	Feasible bool `json:"feasible"`
	// Exact is false when a conservative assumption (non-affine access,
	// solver bailout, incomparable spaces) forced the verdict without a
	// completed solve.
	Exact bool `json:"exact"`
	// Systems counts the FM systems solved for this decision.
	Systems int64 `json:"systems"`
	// VarsEliminated counts FM elimination steps across those systems.
	VarsEliminated int64 `json:"vars_eliminated"`
	// IneqsGenerated counts inequalities produced by elimination pairings;
	// IneqsRetained counts constraints still standing at termination.
	IneqsGenerated int64 `json:"ineqs_generated"`
	IneqsRetained  int64 `json:"ineqs_retained"`
}

// Add accumulates another verdict's solver work (feasibility/exactness are
// combined by the caller, which knows the decision semantics).
func (f *FMVerdict) Add(o FMVerdict) {
	f.Systems += o.Systems
	f.VarsEliminated += o.VarsEliminated
	f.IneqsGenerated += o.IneqsGenerated
	f.IneqsRetained += o.IneqsRetained
}

func (f FMVerdict) String() string {
	v := "infeasible"
	if f.Feasible {
		v = "feasible"
	}
	ex := "exact"
	if !f.Exact {
		ex = "conservative"
	}
	return fmt.Sprintf("%s (%s, %d systems, %d vars eliminated, %d ineqs generated, %d retained)",
		v, ex, f.Systems, f.VarsEliminated, f.IneqsGenerated, f.IneqsRetained)
}

// Access describes one side of a dependence.
type Access struct {
	// Kind is "read" or "write".
	Kind string `json:"kind"`
	// Ref is the rendered reference (e.g. "A(i + 1)" or a scalar name).
	Ref string `json:"ref"`
	// Mode is the executing region mode (parallel, replicated, guarded…).
	Mode string `json:"mode"`
	// Line/Col locate the access in the source.
	Line int `json:"line"`
	Col  int `json:"col"`
}

func (a Access) String() string {
	return fmt.Sprintf("%s %s [%s] @%d:%d", a.Kind, a.Ref, a.Mode, a.Line, a.Col)
}

// Alternative is one cheaper primitive the pass tried and rejected.
type Alternative struct {
	Primitive string `json:"primitive"`
	Reason    string `json:"reason"`
}

// Dependence is one ordered access pair that forced synchronization: the
// dependence kind, both accesses with positions, the class this pair alone
// requires, the FM evidence, and the per-pair rejection ladder.
type Dependence struct {
	// Var is the array or scalar carrying the dependence.
	Var string `json:"var"`
	// Kind is "flow" (write→read), "anti" (read→write) or "output"
	// (write→write).
	Kind string `json:"kind"`
	Src  Access `json:"src"`
	Dst  Access `json:"dst"`
	// Class is the synchronization class this pair requires on its own.
	Class string `json:"class"`
	// Note records a conservative bailout reason ("" when the verdict is
	// exact).
	Note string    `json:"note,omitempty"`
	FM   FMVerdict `json:"fm"`
	// Irreg lists the irregular-access value facts (ranges, affine
	// contents, monotonicity, permutation/injectivity) the analysis
	// brought to bear on this pair — the evidence tier behind static
	// eliminations of indirect accesses and behind inspector synthesis.
	Irreg []string `json:"irreg,omitempty"`
	// Rejected lists the cheaper primitives tried for this pair, cheapest
	// first, each with the reason it was insufficient.
	Rejected []Alternative `json:"rejected,omitempty"`
}

func (d Dependence) String() string {
	s := fmt.Sprintf("%s %s: %s -> %s => %s", d.Kind, d.Var, d.Src, d.Dst, d.Class)
	if d.Note != "" {
		s += " (" + d.Note + ")"
	}
	return s
}

// Remark is the full provenance of one synchronization site's decision.
type Remark struct {
	// Site is the 1-based global sync-site id, shared with the watchdog,
	// StatsSnapshot.PerSite, SabotageEdge and certify.DropSite numbering.
	Site int `json:"site"`
	// Line/Col anchor the boundary in the source: the last statement of
	// the group the sync follows, or the enclosing loop for a loop-bottom
	// boundary.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Region names the enclosing SPMD region ("top", or "loop i @L:C").
	Region string `json:"region"`
	// FromGroup/ToGroup are the statement groups the boundary separates;
	// for a loop-bottom boundary ToGroup wraps to 0 of the next iteration.
	FromGroup int `json:"from_group"`
	ToGroup   int `json:"to_group"`
	// LoopBottom marks the bottom boundary of a loop region.
	LoopBottom bool `json:"loop_bottom,omitempty"`
	// Primitive is the synchronization chosen ("none" when the boundary
	// was proven to need no synchronization — the pass's success case).
	Primitive string `json:"primitive"`
	// WaitLower/WaitUpper are the neighbor-sync wait directions.
	WaitLower bool `json:"wait_lower,omitempty"`
	WaitUpper bool `json:"wait_upper,omitempty"`
	// Deps are the access pairs that forced this primitive.
	Deps []Dependence `json:"deps,omitempty"`
	// Rejected is the ordered list (cheapest first) of alternatives tried
	// and why each was rejected.
	Rejected []Alternative `json:"rejected,omitempty"`
	// FM aggregates the solver evidence across Deps.
	FM FMVerdict `json:"fm"`
	// Note explains decisions not driven by an access pair (baseline join
	// barriers, ablations, proven-empty boundaries).
	Note string `json:"note,omitempty"`
	// FDO, when set, records the feedback-directed re-optimization of
	// this site: the prior primitive, the measured evidence and the
	// predicted saving (see FDORemark).
	FDO *FDORemark `json:"fdo,omitempty"`
}

// Eliminated reports whether this site needs no runtime synchronization.
func (r Remark) Eliminated() bool { return r.Primitive == PrimNone }

// Why returns a one-line reason for the decision: the binding dependence
// (the first of the most expensive class), or the note.
func (r Remark) Why() string {
	if len(r.Deps) > 0 {
		best := 0
		for i, d := range r.Deps {
			if ladderRank(d.Class) > ladderRank(r.Deps[best].Class) {
				best = i
			}
		}
		return r.Deps[best].String()
	}
	if r.Note != "" {
		return r.Note
	}
	return "no cross-processor flow crosses this boundary"
}

// PosString renders the source anchor.
func (r Remark) PosString() string { return fmt.Sprintf("%d:%d", r.Line, r.Col) }

// Set is the whole-program remark list, one remark per sync site in site
// order (Remarks[i].Site == i+1).
type Set struct {
	Program string   `json:"program"`
	Remarks []Remark `json:"remarks"`
}

// MergeRejected combines per-dependence rejection ladders with
// boundary-level alternatives into one ordered list, cheapest primitive
// first, keeping the first reason seen for each primitive. Only primitives
// strictly cheaper than chosen are kept.
func MergeRejected(deps []Dependence, extra []Alternative, chosen string) []Alternative {
	limit := ladderRank(chosen)
	seen := map[string]string{}
	add := func(a Alternative) {
		if ladderRank(a.Primitive) >= limit {
			return
		}
		if _, ok := seen[a.Primitive]; !ok {
			seen[a.Primitive] = a.Reason
		}
	}
	for _, d := range deps {
		for _, a := range d.Rejected {
			add(a)
		}
	}
	for _, a := range extra {
		add(a)
	}
	var out []Alternative
	for _, p := range ladder {
		if reason, ok := seen[p]; ok {
			out = append(out, Alternative{Primitive: p, Reason: reason})
		}
	}
	return out
}

// SetPos fills a remark's position from an IR position.
func (r *Remark) SetPos(p ir.Pos) { r.Line, r.Col = p.Line, p.Col }

// Render prints the set as human-readable remark lines, one block per
// site, in site order — the `barrierc -remarks` text format.
func (s *Set) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "optimization remarks for %s: %d sync sites\n", s.Program, len(s.Remarks))
	for _, r := range s.Remarks {
		kind := "kept"
		if r.Eliminated() {
			kind = "eliminated"
		}
		head := r.Primitive
		if r.Primitive == PrimNeighbor {
			var d []string
			if r.WaitLower {
				d = append(d, "lower")
			}
			if r.WaitUpper {
				d = append(d, "upper")
			}
			head += "(" + strings.Join(d, ",") + ")"
		}
		bottom := ""
		if r.LoopBottom {
			bottom = " loop-bottom"
		}
		fmt.Fprintf(&sb, "site %d @%s [%s g%d→g%d%s] %s: %s\n",
			r.Site, r.PosString(), r.Region, r.FromGroup, r.ToGroup, bottom, kind, head)
		if r.Note != "" {
			fmt.Fprintf(&sb, "  note: %s\n", r.Note)
		}
		for _, d := range r.Deps {
			fmt.Fprintf(&sb, "  %s\n", d)
			fmt.Fprintf(&sb, "    fm: %s\n", d.FM)
			for _, f := range d.Irreg {
				fmt.Fprintf(&sb, "    irreg: %s\n", f)
			}
		}
		for _, a := range r.Rejected {
			fmt.Fprintf(&sb, "  rejected %s: %s\n", a.Primitive, a.Reason)
		}
		if r.FDO != nil {
			fmt.Fprintf(&sb, "  %s\n", r.FDO)
		}
		if r.FM.Systems > 0 {
			fmt.Fprintf(&sb, "  fm total: %s\n", r.FM)
		}
	}
	return sb.String()
}
