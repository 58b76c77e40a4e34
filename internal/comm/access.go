package comm

import (
	"repro/internal/ir"
	"repro/internal/region"
)

// guard is one enclosing conditional branch: the condition expression and
// whether the access sits on the else side.
type guard struct {
	cond    ir.Expr
	negated bool
}

// access is one shared-data touch relevant to synchronization.
type access struct {
	name   string
	ref    *ir.Ref // nil for scalar accesses
	write  bool
	scalar bool
	// chain: loops inside the group statement enclosing the access,
	// outermost first. The first parallel loop in the chain (if any)
	// determines the processor placement.
	chain []*ir.Loop
	// guards: enclosing conditional branches, outermost first. Affine
	// guards are added to the access's constraint system ("guarded
	// computations — statements that must be protected by explicit
	// guard expressions", §2.3), sharpening the communication test.
	guards []guard
	mode   region.Mode
	stmt   ir.Stmt // the top-level group statement
}

// modeIsReplicated reports whether the access sits in a replicated
// statement (executed by every worker).
func (a access) modeIsReplicated() bool { return a.mode == region.ModeReplicated }

// collectGroup gathers the shared accesses of all statements in a group.
// Private scalars and reduction-variable reads inside their own loops are
// invisible to other processors and skipped; writes by replicated
// statements are skipped (every worker computes its own copy).
func (a *Analyzer) collectGroup(stmts []ir.Stmt, outer []*ir.Loop, carrier *ir.Loop) []access {
	idxNames := map[string]bool{}
	for _, l := range outer {
		idxNames[l.Index] = true
	}
	if carrier != nil {
		idxNames[carrier.Index] = true
	}
	var out []access
	for _, s := range stmts {
		mode := a.Modes[s]
		c := &collector{
			prog:     a.Ctx.Prog,
			mode:     mode,
			top:      s,
			outerIdx: idxNames,
			private:  map[string]bool{},
			redvars:  map[string]bool{},
		}
		c.stmts([]ir.Stmt{s}, nil, nil)
		out = append(out, c.out...)
	}
	return out
}

type collector struct {
	prog     *ir.Program
	mode     region.Mode
	top      ir.Stmt
	outerIdx map[string]bool
	private  map[string]bool
	redvars  map[string]bool
	out      []access
}

func (c *collector) add(name string, ref *ir.Ref, write, scalar bool, chain []*ir.Loop, guards []guard) {
	c.out = append(c.out, access{
		name: name, ref: ref, write: write, scalar: scalar,
		chain:  append([]*ir.Loop(nil), chain...),
		guards: append([]guard(nil), guards...),
		mode:   c.mode, stmt: c.top,
	})
}

func (c *collector) stmts(list []ir.Stmt, chain []*ir.Loop, guards []guard) {
	for _, s := range list {
		switch n := s.(type) {
		case *ir.Assign:
			c.assign(n, chain, guards)
		case *ir.Loop:
			c.expr(n.Lo, chain, guards)
			c.expr(n.Hi, chain, guards)
			wasPriv, wasRed := map[string]bool{}, map[string]bool{}
			if n.Parallel {
				for _, p := range n.Private {
					wasPriv[p] = c.private[p]
					c.private[p] = true
				}
				for _, r := range n.Reductions {
					wasRed[r.Var] = c.redvars[r.Var]
					c.redvars[r.Var] = true
				}
			}
			c.stmts(n.Body, append(chain, n), guards)
			if n.Parallel {
				for p, old := range wasPriv {
					c.private[p] = old
				}
				for r, old := range wasRed {
					c.redvars[r] = old
				}
			}
		case *ir.If:
			// The condition itself is evaluated unguarded.
			c.expr(n.Cond, chain, guards)
			c.stmts(n.Then, chain, append(guards, guard{cond: n.Cond}))
			c.stmts(n.Else, chain, append(guards, guard{cond: n.Cond, negated: true}))
		}
	}
}

func (c *collector) assign(n *ir.Assign, chain []*ir.Loop, guards []guard) {
	lhs := n.LHS
	switch {
	case lhs.IsArray():
		c.add(lhs.Name, lhs, true, false, chain, guards)
		for _, sub := range lhs.Subs {
			c.expr(sub, chain, guards)
		}
	case c.private[lhs.Name]:
		// Private scalar: invisible outside its worker.
	case c.redvars[lhs.Name]:
		// Reduction update: written by every active worker, even in a
		// replicated statement, so this arm precedes the next.
		c.add(lhs.Name, nil, true, true, chain, guards)
	case c.mode == region.ModeReplicated:
		// Every worker computes its own copy; the write itself is
		// not shared data movement.
	default:
		c.add(lhs.Name, nil, true, true, chain, guards)
	}
	c.expr(n.RHS, chain, guards)
}

func (c *collector) expr(e ir.Expr, chain []*ir.Loop, guards []guard) {
	chainIdx := map[string]bool{}
	for _, l := range chain {
		chainIdx[l.Index] = true
	}
	ir.WalkExprs(e, func(x ir.Expr) {
		r, ok := x.(*ir.Ref)
		if !ok {
			return
		}
		if r.IsArray() {
			c.add(r.Name, r, false, false, chain, guards)
			return
		}
		name := r.Name
		switch {
		case chainIdx[name] || c.outerIdx[name]:
			// Loop index.
		case c.prog.IsParam(name):
			// Compile-time symbolic constant.
		case c.private[name] || c.redvars[name]:
			// Worker-local.
		case c.prog.IsScalar(name):
			c.add(name, nil, false, true, chain, guards)
		}
	})
}
