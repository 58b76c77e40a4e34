// Package lint implements source-level diagnostics over the DSL: semantic
// errors surfaced as structured findings, out-of-bounds affine subscripts
// proven feasible or infeasible with the same Fourier-Motzkin machinery the
// optimizer uses (§3.2.1), uninitialized reads, dead stores, unused
// declarations, and warnings for constructs the affine analyses cannot see
// through (non-affine subscripts and bounds, non-rectangular loops).
//
// Findings carry a source position and a severity and render in `go vet`
// style: "file:line:col: severity: message [rule]".
package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/irreg"
	"repro/internal/linear"
	"repro/internal/parser"
	"repro/internal/region"
)

// Severity ranks a finding. Only warnings and errors count as findings for
// exit-code purposes; infos are observations (e.g. "array is a program
// input") that well-formed programs are expected to produce.
type Severity int

const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Diagnostic is one finding.
type Diagnostic struct {
	P        ir.Pos
	Severity Severity
	Rule     string
	Msg      string
}

// Format renders the diagnostic for file in `go vet` style. A zero position
// drops the line:col segment.
func (d Diagnostic) Format(file string) string {
	if d.P.Line > 0 {
		return fmt.Sprintf("%s:%s: %s: %s [%s]", file, d.P, d.Severity, d.Msg, d.Rule)
	}
	return fmt.Sprintf("%s: %s: %s [%s]", file, d.Severity, d.Msg, d.Rule)
}

// Render formats all diagnostics, one per line (trailing newline included;
// empty input renders as the empty string).
func Render(file string, diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.Format(file))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// HasFindings reports whether any diagnostic is a warning or an error.
func HasFindings(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity >= SevWarning {
			return true
		}
	}
	return false
}

// Source parses and lints DSL source text. Parse and validation failures
// surface as error-severity diagnostics, never as a Go error.
func Source(src string) []Diagnostic {
	prog, err := parser.ParseNoValidate(src)
	if err != nil {
		if pe, ok := err.(*parser.Error); ok {
			return []Diagnostic{{P: pe.Pos, Severity: SevError, Rule: "syntax", Msg: pe.Msg}}
		}
		return []Diagnostic{{Severity: SevError, Rule: "syntax", Msg: err.Error()}}
	}
	return Program(prog)
}

// Program lints a parsed program. Semantic errors (from ir.Validate) are
// reported first; when any are present the deeper rules are skipped, since
// they assume declarations and arities are consistent.
func Program(p *ir.Program) []Diagnostic {
	var sem []Diagnostic
	for _, e := range ir.Validate(p) {
		if ve, ok := e.(*ir.ValidationError); ok {
			sem = append(sem, Diagnostic{P: ve.P, Severity: SevError, Rule: "semantics", Msg: ve.Msg})
		} else {
			sem = append(sem, Diagnostic{Severity: SevError, Rule: "semantics", Msg: e.Error()})
		}
	}
	if len(sem) > 0 {
		sortDiags(sem)
		return sem
	}
	l := &linter{prog: p}
	// The irregular value analysis runs on the validated program the same
	// way core's pipeline invokes it, so the linter's downgrade decisions
	// match the optimizer's actual recovery tier.
	l.facts = irreg.Analyze(p, region.Classify(p, nil), 1)
	l.usageRules()
	l.deadStores(p.Body)
	l.shapeRules(p.Body, map[string]bool{})
	l.boundsRules(p.Body, ir.NewAffineEnv(p), linear.NewSystem())
	sortDiags(l.diags)
	return l.diags
}

func sortDiags(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.P.Line != b.P.Line {
			return a.P.Line < b.P.Line
		}
		if a.P.Col != b.P.Col {
			return a.P.Col < b.P.Col
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

type linter struct {
	prog *ir.Program
	// facts is the irregular-access value lattice for the program; used
	// to downgrade non-affine-subscript warnings the optimizer's
	// irregular tier recovers. Nil when analysis is unavailable.
	facts *irreg.Facts
	diags []Diagnostic
}

func (l *linter) add(p ir.Pos, sev Severity, rule, format string, args ...any) {
	l.diags = append(l.diags, Diagnostic{P: p, Severity: sev, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// usageRules flags unused declarations, scalar reads that can never see an
// assigned value, and arrays used in only one direction (informational:
// read-only arrays are program inputs, write-only arrays are outputs).
func (l *linter) usageRules() {
	p := l.prog
	reads := map[string]bool{}
	writes := map[string]bool{}
	firstRead := map[string]ir.Pos{}
	for _, acc := range ir.CollectAccesses(p.Body) {
		name := acc.Ref.Name
		if acc.Write {
			writes[name] = true
			continue
		}
		reads[name] = true
		if _, seen := firstRead[name]; !seen {
			firstRead[name] = acc.Ref.P
		}
	}
	// Parameters used only in array extents still count as used.
	for _, a := range p.Arrays {
		for _, dim := range a.Dims {
			ir.WalkExprs(dim, func(e ir.Expr) {
				if r, ok := e.(*ir.Ref); ok {
					reads[r.Name] = true
				}
			})
		}
	}
	for _, s := range p.Params {
		if !reads[s] && !writes[s] {
			l.add(p.PosOf(s), SevWarning, "unused-decl", "parameter %s is declared but never used", s)
		}
	}
	for _, s := range p.Scalars {
		switch {
		case !reads[s] && !writes[s]:
			l.add(p.PosOf(s), SevWarning, "unused-decl", "scalar %s is declared but never used", s)
		case reads[s] && !writes[s]:
			l.add(firstRead[s], SevWarning, "uninit-read", "scalar %s is read but never assigned", s)
		case writes[s] && !reads[s]:
			l.add(p.PosOf(s), SevWarning, "unread-value", "scalar %s is assigned but its value is never read", s)
		}
	}
	for _, a := range p.Arrays {
		pos := a.P
		if pos.Line == 0 {
			pos = p.PosOf(a.Name)
		}
		switch {
		case !reads[a.Name] && !writes[a.Name]:
			l.add(pos, SevWarning, "unused-decl", "array %s is declared but never used", a.Name)
		case reads[a.Name] && !writes[a.Name]:
			l.add(pos, SevInfo, "read-only-array", "array %s is read but never written (assumed program input)", a.Name)
		case writes[a.Name] && !reads[a.Name]:
			l.add(pos, SevInfo, "write-only-array", "array %s is written but never read (program output)", a.Name)
		}
	}
}

// deadStores flags a scalar assignment whose value is overwritten later in
// the same straight-line block with no intervening read. Control flow
// (loops, conditionals) conservatively kills all pending stores, so the
// rule never fires across iterations or branches.
func (l *linter) deadStores(stmts []ir.Stmt) {
	pending := map[string]*ir.Assign{}
	killReads := func(e ir.Expr) {
		ir.WalkExprs(e, func(x ir.Expr) {
			if r, ok := x.(*ir.Ref); ok {
				delete(pending, r.Name)
			}
		})
	}
	for _, s := range stmts {
		switch n := s.(type) {
		case *ir.Assign:
			for _, sub := range n.LHS.Subs {
				killReads(sub)
			}
			killReads(n.RHS)
			if !n.LHS.IsArray() && l.prog.IsScalar(n.LHS.Name) {
				if prev, ok := pending[n.LHS.Name]; ok {
					l.add(prev.P, SevWarning, "dead-store",
						"value assigned to %s is overwritten at line %d before being read",
						n.LHS.Name, n.P.Line)
				}
				pending[n.LHS.Name] = n
			}
		case *ir.Loop:
			pending = map[string]*ir.Assign{}
			l.deadStores(n.Body)
		case *ir.If:
			pending = map[string]*ir.Assign{}
			l.deadStores(n.Then)
			l.deadStores(n.Else)
		}
	}
}

// shapeRules warns about constructs the affine dependence analyses cannot
// model: non-affine loop bounds and array subscripts (the optimizer falls
// back to conservative barriers there) and notes non-rectangular
// (triangular) iteration spaces.
//
// Non-affine subscripts are reported once per (statement, array, dim) —
// a statement like val(dst(e)) = val(dst(e)) + 1 names the same offending
// subscript on both sides — and anchored at the innermost non-affine
// subexpression (the index-array read itself, not the arithmetic around
// it). When the irregular-access value analysis can evaluate the
// subscript from frozen index arrays, the warning is downgraded to an
// info: the optimizer's irregular tier (value facts or a runtime
// inspector) recovers what the affine tier cannot see.
func (l *linter) shapeRules(stmts []ir.Stmt, bound map[string]bool) {
	env := ir.NewAffineEnv(l.prog)
	for idx := range bound {
		env.Bind(idx, linear.Loop(idx))
	}
	checkSubs := func(e ir.Expr, seen map[string]bool) {
		ir.WalkExprs(e, func(x ir.Expr) {
			r, ok := x.(*ir.Ref)
			if !ok || !r.IsArray() {
				return
			}
			for d, sub := range r.Subs {
				if _, affine := env.Affine(sub); affine {
					continue
				}
				key := fmt.Sprintf("%s/%d", r.Name, d)
				if seen[key] {
					continue
				}
				seen[key] = true
				off := innermostNonAffine(env, sub)
				if l.facts != nil && l.readsStableIndex(sub) && l.facts.Evaluable(sub, bound) {
					l.add(off.Pos(), SevInfo, "non-affine-subscript",
						"subscript %d of %s reads through a frozen index array (%s); recovered by irregular-access analysis",
						d+1, r.Name, ir.ExprString(off))
					continue
				}
				l.add(off.Pos(), SevWarning, "non-affine-subscript",
					"subscript %d of %s is not affine (%s); dependence analysis will be conservative",
					d+1, r.Name, ir.ExprString(off))
			}
		})
	}
	for _, s := range stmts {
		switch n := s.(type) {
		case *ir.Loop:
			for _, b := range []ir.Expr{n.Lo, n.Hi} {
				a, affine := env.Affine(b)
				if !affine {
					if l.facts != nil && l.readsStableIndex(b) && l.facts.Evaluable(b, bound) {
						l.add(b.Pos(), SevInfo, "non-affine-bound",
							"bound of loop %s reads through a frozen index array; recovered by irregular-access analysis", n.Index)
						continue
					}
					l.add(b.Pos(), SevWarning, "non-affine-bound",
						"bound of loop %s is not affine; the loop cannot be analyzed for parallelism", n.Index)
					continue
				}
				for _, v := range a.Vars() {
					if v.Kind == linear.KindLoop {
						l.add(b.Pos(), SevInfo, "non-rectangular",
							"bound of loop %s depends on outer index %s (non-rectangular iteration space)",
							n.Index, v.Name)
						break
					}
				}
			}
			inner := map[string]bool{}
			for k := range bound {
				inner[k] = true
			}
			inner[n.Index] = true
			l.shapeRules(n.Body, inner)
		case *ir.Assign:
			seen := map[string]bool{}
			checkSubs(n.LHS, seen)
			checkSubs(n.RHS, seen)
		case *ir.If:
			checkSubs(n.Cond, map[string]bool{})
			l.shapeRules(n.Then, bound)
			l.shapeRules(n.Else, bound)
		}
	}
}

// readsStableIndex reports whether the expression reads an array the
// irregular analysis froze (guarded setup writes only) — the same gate
// the optimizer's inspector tier applies, so the linter downgrades
// exactly the subscripts the irregular tier can actually recover.
func (l *linter) readsStableIndex(e ir.Expr) bool {
	found := false
	ir.WalkExprs(e, func(n ir.Expr) {
		if r, ok := n.(*ir.Ref); ok && r.IsArray() && l.facts.StableIndex(r.Name) {
			found = true
		}
	})
	return found
}

// innermostNonAffine descends into the smallest subexpression of e that
// is itself non-affine: the concrete construct (index-array read, mod
// call, scalar product) the analysis chokes on, rather than the whole
// subscript expression around it.
func innermostNonAffine(env *ir.AffineEnv, e ir.Expr) ir.Expr {
	var kids []ir.Expr
	switch n := e.(type) {
	case *ir.Bin:
		kids = []ir.Expr{n.L, n.R}
	case *ir.Unary:
		kids = []ir.Expr{n.X}
	case *ir.Call:
		kids = n.Args
	case *ir.Ref:
		kids = n.Subs
	}
	for _, k := range kids {
		if _, affine := env.Affine(k); !affine {
			return innermostNonAffine(env, k)
		}
	}
	return e
}

// boundsRules proves every affine array subscript in or out of its declared
// extent under the enclosing loop bounds and affine guards. A violation
// system that Fourier-Motzkin finds feasible is escalated to an error when
// bounded integer enumeration produces a concrete witness point, and
// reported as a may-warning otherwise.
func (l *linter) boundsRules(stmts []ir.Stmt, env *ir.AffineEnv, sys *linear.System) {
	checkRef := func(r *ir.Ref) {
		if !r.IsArray() {
			return
		}
		decl := l.prog.Array(r.Name)
		if decl == nil || decl.Rank() != len(r.Subs) {
			return
		}
		extEnv := ir.NewAffineEnv(l.prog)
		for d, sub := range r.Subs {
			a, affine := env.Affine(sub)
			if !affine {
				continue // reported by shapeRules
			}
			ext, affine := extEnv.Affine(decl.Dims[d])
			if !affine {
				continue // reported by ir.Validate
			}
			l.checkBound(r, d, a, ext, sys.Copy().AddLE(a, linear.NewAffine(0)), "below 1")
			l.checkBound(r, d, a, ext, sys.Copy().AddGE(a, ext.AddConst(1)), "above "+ext.String())
		}
	}
	visitExpr := func(e ir.Expr) {
		ir.WalkExprs(e, func(x ir.Expr) {
			if r, ok := x.(*ir.Ref); ok {
				checkRef(r)
			}
		})
	}
	for _, s := range stmts {
		switch n := s.(type) {
		case *ir.Loop:
			visitExpr(n.Lo)
			visitExpr(n.Hi)
			v := linear.Loop(n.Index)
			inner := env.Clone().Bind(n.Index, v)
			isys := sys.Copy()
			lo, loOK := inner.Affine(n.Lo)
			hi, hiOK := inner.Affine(n.Hi)
			if loOK && hiOK {
				isys.AddRange(v, lo, hi)
			}
			l.boundsRules(n.Body, inner, isys)
		case *ir.Assign:
			checkRef(n.LHS)
			for _, sub := range n.LHS.Subs {
				visitExpr(sub)
			}
			visitExpr(n.RHS)
		case *ir.If:
			visitExpr(n.Cond)
			thenSys := sys.Copy().Add(guardCons(env, n.Cond)...)
			l.boundsRules(n.Then, env, thenSys)
			elseSys := sys.Copy()
			if neg, ok := negateGuard(env, n.Cond); ok {
				elseSys.Add(neg)
			}
			l.boundsRules(n.Else, env, elseSys)
		}
	}
}

// checkBound reports one violation direction for subscript d of r. A
// feasible violation that some parameter valuation avoids is demoted to an
// input-precondition note: the program is in bounds only under a relation
// among its parameters (e.g. 2*M <= N) that the DSL cannot state.
func (l *linter) checkBound(r *ir.Ref, d int, sub, ext linear.Affine, violation *linear.System, dir string) {
	if !violation.Solve().MayHold() {
		return
	}
	pos := r.Subs[d].Pos()
	if pre, dependent := paramPrecondition(violation); dependent {
		l.add(pos, SevInfo, "bounds-precondition",
			"subscript %d of %s stays within 1..%s only when %s (input precondition)",
			d+1, r.Name, ext.String(), pre)
		return
	}
	pt, res := violation.Enumerate(linear.EnumOptions{SymbolicRange: [2]int64{1, 8}, Budget: 50000})
	if res == linear.EnumPoint {
		l.add(pos, SevError, "out-of-bounds",
			"subscript %d of %s evaluates to %d, %s (e.g. %s)",
			d+1, r.Name, sub.Eval(pt), dir, samplePoint(pt))
		return
	}
	l.add(pos, SevWarning, "out-of-bounds",
		"subscript %d of %s may fall %s (bounds 1..%s)", d+1, r.Name, dir, ext.String())
}

// paramPrecondition projects a feasible violation system onto the symbolic
// parameters and looks for a projected constraint that positive parameter
// values can escape. If one exists, the violation only occurs for some
// parameter valuations and the negated constraints form the precondition
// under which the access is safe.
func paramPrecondition(violation *linear.System) (precondition string, dependent bool) {
	proj, ok := violation.Project(func(v linear.Var) bool {
		return v.Kind != linear.KindSymbolic
	})
	if !ok {
		return "", false
	}
	positive := linear.NewSystem()
	for _, v := range proj.Vars() {
		positive.AddGE(linear.VarExpr(v), linear.NewAffine(1))
	}
	var parts []string
	seen := map[string]bool{}
	for _, c := range proj.Cons {
		switch c.Op {
		case linear.OpGE:
			if positive.Copy().Add(c.Negate()).Solve().MayHold() {
				pre := c.Negate().String()
				if !seen[pre] {
					seen[pre] = true
					parts = append(parts, pre)
				}
			}
		case linear.OpEQ:
			// ¬(e == 0) is a disjunction; avoidable if either side is.
			lo := linear.Constraint{Expr: c.Expr.AddConst(-1), Op: linear.OpGE}
			hi := linear.Constraint{Expr: c.Expr.Neg().AddConst(-1), Op: linear.OpGE}
			if positive.Copy().Add(lo).Solve().MayHold() || positive.Copy().Add(hi).Solve().MayHold() {
				pre := c.Expr.String() + " != 0"
				if !seen[pre] {
					seen[pre] = true
					parts = append(parts, pre)
				}
			}
		}
	}
	if len(parts) == 0 {
		return "", false
	}
	sort.Strings(parts)
	if len(parts) > 3 {
		parts = parts[:3]
	}
	return strings.Join(parts, " and "), true
}

// samplePoint renders a witness assignment in scan order, e.g. "N=1, i=1".
func samplePoint(pt map[linear.Var]int64) string {
	vars := make([]linear.Var, 0, len(pt))
	for v := range pt {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool {
		if vars[i].Kind != vars[j].Kind {
			return vars[i].Kind < vars[j].Kind
		}
		return vars[i].Name < vars[j].Name
	})
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = fmt.Sprintf("%s=%d", v.Name, pt[v])
	}
	return strings.Join(parts, ", ")
}

// guardCons extracts the affine conjuncts of a guard condition that hold on
// the then-branch. Unextractable conjuncts are simply dropped (sound: the
// branch system is then a relaxation).
func guardCons(env *ir.AffineEnv, cond ir.Expr) []linear.Constraint {
	b, ok := cond.(*ir.Bin)
	if !ok {
		return nil
	}
	if b.Op == ir.AndOp {
		return append(guardCons(env, b.L), guardCons(env, b.R)...)
	}
	if !b.Op.IsCompare() || b.Op == ir.NeOp {
		return nil
	}
	lft, ok1 := env.Affine(b.L)
	rgt, ok2 := env.Affine(b.R)
	if !ok1 || !ok2 {
		return nil
	}
	switch b.Op {
	case ir.EqOp:
		return []linear.Constraint{linear.EQ(lft, rgt)}
	case ir.LtOp:
		return []linear.Constraint{linear.LE(lft, rgt.AddConst(-1))}
	case ir.LeOp:
		return []linear.Constraint{linear.LE(lft, rgt)}
	case ir.GtOp:
		return []linear.Constraint{linear.GE(lft, rgt.AddConst(1))}
	case ir.GeOp:
		return []linear.Constraint{linear.GE(lft, rgt)}
	}
	return nil
}

// negateGuard returns the single-constraint negation of a guard for the
// else-branch. Only plain inequality comparisons negate into one affine
// constraint; anything else (conjunctions, equalities, non-affine) yields
// ok=false and the else-branch gets no extra constraint.
func negateGuard(env *ir.AffineEnv, cond ir.Expr) (linear.Constraint, bool) {
	b, ok := cond.(*ir.Bin)
	if !ok || !b.Op.IsCompare() || b.Op == ir.EqOp || b.Op == ir.NeOp {
		return linear.Constraint{}, false
	}
	lft, ok1 := env.Affine(b.L)
	rgt, ok2 := env.Affine(b.R)
	if !ok1 || !ok2 {
		return linear.Constraint{}, false
	}
	switch b.Op {
	case ir.LtOp: // ¬(l < r) ⇔ l >= r
		return linear.GE(lft, rgt), true
	case ir.LeOp: // ¬(l <= r) ⇔ l >= r+1
		return linear.GE(lft, rgt.AddConst(1)), true
	case ir.GtOp: // ¬(l > r) ⇔ l <= r
		return linear.LE(lft, rgt), true
	case ir.GeOp: // ¬(l >= r) ⇔ l <= r-1
		return linear.LE(lft, rgt.AddConst(-1)), true
	}
	return linear.Constraint{}, false
}
