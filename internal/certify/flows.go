package certify

import (
	"encoding/json"
	"fmt"

	"repro/internal/decomp"
	"repro/internal/ir"
	"repro/internal/irreg"
	"repro/internal/linear"
	"repro/internal/region"
)

// FlowClass is certify's three-way communication verdict. The certifier
// deliberately does not distinguish counter-class from general barrier
// communication: coverage treats both identically (only a barrier on the
// crossed path, a counter every producing step posts, or a dispatch after
// master-only producers orders them), so the distinction would add analysis
// surface without adding certification power.
type FlowClass int

const (
	// FlowNone: producers and consumers provably coincide.
	FlowNone FlowClass = iota
	// FlowNeighbor: data crosses only adjacent block boundaries.
	FlowNeighbor
	// FlowGeneral: arbitrary cross-processor movement.
	FlowGeneral
)

func (c FlowClass) String() string {
	switch c {
	case FlowNone:
		return "none"
	case FlowNeighbor:
		return "neighbor"
	case FlowGeneral:
		return "general"
	default:
		return "FlowClass(?)"
	}
}

func (c FlowClass) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// Flow is one cross-processor data movement between two groups of a region.
type Flow struct {
	From    int  // producing group index
	To      int  // consuming group index
	Carried bool // crosses an iteration of the region loop
	Class   FlowClass
	// Lower/Upper: for FlowNeighbor, the consumer-side wait directions
	// (wait on the lower / upper neighbor rank).
	Lower, Upper bool
	// Pairs describes the access pairs behind the flow.
	Pairs []string
	// Inspectable reports that every communicating pair of the flow is one
	// a runtime inspector scan can resolve: the certifier's own irregular-
	// access facts prove the subscripts and chain bounds of both sides
	// scan-evaluable from frozen index arrays. Only such flows may be
	// ordered (conditionally) by a KindInspector boundary.
	Inspectable bool
	// inspectKeys are the flow's communicating pairs in key form, one per
	// pair when Inspectable; a KindInspector boundary orders the flow only
	// if its own scan list includes every one of them.
	inspectKeys []InspectKey
	// prod and cons are the region's top-level statements that produce and
	// consume the flow, one per pair: where the ordering half looks for its
	// steps.
	prod, cons []ir.Stmt
	// rep holds the feasibility systems of a representative communicating
	// access pair, for witness extraction.
	rep *pairRep
}

// pairRep retains the constraint systems of one communicating access pair.
type pairRep struct {
	array string
	// subs are the producer-side subscript affines (empty for scalars).
	subs []linear.Affine
	// upSys/downSys: the pair system restricted to consumer-above /
	// consumer-below geometry (nil when that direction is infeasible).
	upSys, downSys *linear.System
	u1, u2         linear.Var
	prodIdx        map[string]linear.Var
	consIdx        map[string]linear.Var
}

// blockVar is the symbolic block size shared by comparable placements.
var blockVar = linear.Sym("$B")

// analyzer rebuilds communication verdicts from the IR, the recomputed
// decomposition plan and region modes, and a parameter assumption system.
type analyzer struct {
	prog   *ir.Program
	plan   *decomp.Plan
	modes  map[ir.Stmt]region.Mode
	assume *linear.System
	// facts is the certifier's own irregular-access lattice, recomputed
	// from the IR (never taken from the optimizer): frozen index-array
	// contents close otherwise non-affine systems, and scan-evaluability
	// marks flows a runtime inspector can order.
	facts *irreg.Facts
	// oracleErrs records FM/enumeration disagreements (solver bugs).
	oracleErrs []error
	// oracleBudget limits how many infeasibility verdicts are
	// double-checked by enumeration per analysis.
	oracleBudget int
}

func newAnalyzer(prog *ir.Program, plan *decomp.Plan, modes map[ir.Stmt]region.Mode, minParam int64) *analyzer {
	if minParam < 1 {
		minParam = 1
	}
	assume := linear.NewSystem()
	for _, p := range prog.Params {
		assume.AddGE(linear.VarExpr(linear.Sym(p)), linear.NewAffine(minParam))
	}
	return &analyzer{prog: prog, plan: plan, modes: modes, assume: assume, oracleBudget: 64}
}

// feasible decides a system with FM, and spot-checks Infeasible verdicts
// against the bounded-enumeration oracle: a concrete point inside a system
// FM rejected is a decision-procedure bug, recorded for the caller.
func (a *analyzer) feasible(sys *linear.System) bool {
	if sys.Solve().MayHold() {
		return true
	}
	if a.oracleBudget > 0 {
		a.oracleBudget--
		if pt, r := sys.Enumerate(linear.EnumOptions{SymbolicRange: [2]int64{1, 4}, Budget: 20000}); r == linear.EnumPoint {
			a.oracleErrs = append(a.oracleErrs, fmt.Errorf(
				"certify: oracle disagreement: FM proved %s infeasible but enumeration found %v", sys, pt))
			return true
		}
	}
	return false
}

// between computes the flow verdict between producing group X and consuming
// group Y. With carrier == nil the test is loop-independent at the nesting
// level of outer; otherwise X executes in an earlier carrier iteration.
func (a *analyzer) between(X, Y []ir.Stmt, outer []*ir.Loop, carrier *ir.Loop) Flow {
	accX := a.collect(X, outer, carrier)
	accY := a.collect(Y, outer, carrier)
	out := Flow{Class: FlowNone, Inspectable: true}
	for _, x := range accX {
		for _, y := range accY {
			if x.name != y.name || (!x.write && !y.write) {
				continue
			}
			cls, lower, upper, rep := a.classify(x, y, outer, carrier)
			if cls == FlowNone {
				continue
			}
			if a.inspectRes(x, y, outer, carrier) {
				out.inspectKeys = append(out.inspectKeys, inspectKeyOf(x, y, carrier))
			} else {
				out.Inspectable = false
			}
			if cls > out.Class {
				out.Class = cls
			}
			out.Lower = out.Lower || lower
			out.Upper = out.Upper || upper
			out.Pairs = append(out.Pairs, fmt.Sprintf("%s: %s -> %s", x.name, x.describe(), y.describe()))
			out.prod = append(out.prod, x.stmt)
			out.cons = append(out.cons, y.stmt)
			if out.rep == nil && rep != nil {
				out.rep = rep
			}
		}
	}
	return out
}

// acc is one shared-data access with its execution context.
type acc struct {
	name      string
	ref       *ir.Ref // nil for scalars
	write     bool
	scalar    bool
	reduction bool
	stmt      ir.Stmt    // the enclosing top-level group statement
	chain     []*ir.Loop // enclosing loops inside the group statement
	guards    []cond     // enclosing conditional branches
	mode      region.Mode
}

type cond struct {
	expr    ir.Expr
	negated bool
}

func (x acc) describe() string {
	kind := "read"
	if x.write {
		kind = "write"
	}
	what := x.name
	if x.ref != nil {
		what = ir.ExprString(x.ref)
	}
	return fmt.Sprintf("%s %s [%s]", kind, what, x.mode)
}

// collect gathers the shared accesses of a statement group. Private
// scalars and reduction-variable reads are worker-local and skipped;
// writes by replicated statements are per-worker copies and skipped.
func (a *analyzer) collect(stmts []ir.Stmt, outer []*ir.Loop, carrier *ir.Loop) []acc {
	outerIdx := map[string]bool{}
	for _, l := range outer {
		outerIdx[l.Index] = true
	}
	if carrier != nil {
		outerIdx[carrier.Index] = true
	}
	var out []acc
	for _, top := range stmts {
		mode := a.modes[top]
		private := map[string]bool{}
		redvars := map[string]bool{}

		var visitStmts func(list []ir.Stmt, chain []*ir.Loop, guards []cond)
		emit := func(name string, ref *ir.Ref, write, scalar, reduction bool, chain []*ir.Loop, guards []cond) {
			out = append(out, acc{
				name: name, ref: ref, write: write, scalar: scalar, reduction: reduction,
				stmt:   top,
				chain:  append([]*ir.Loop(nil), chain...),
				guards: append([]cond(nil), guards...),
				mode:   mode,
			})
		}
		visitExpr := func(e ir.Expr, chain []*ir.Loop, guards []cond) {
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
					emit(r.Name, r, false, false, false, chain, guards)
					return
				}
				switch {
				case chainIdx[r.Name] || outerIdx[r.Name]:
				case a.prog.IsParam(r.Name):
				case private[r.Name] || redvars[r.Name]:
				case a.prog.IsScalar(r.Name):
					emit(r.Name, nil, false, true, false, chain, guards)
				}
			})
		}
		visitStmts = func(list []ir.Stmt, chain []*ir.Loop, guards []cond) {
			for _, s := range list {
				switch n := s.(type) {
				case *ir.Assign:
					lhs := n.LHS
					switch {
					case lhs.IsArray():
						emit(lhs.Name, lhs, true, false, false, chain, guards)
						for _, sub := range lhs.Subs {
							visitExpr(sub, chain, guards)
						}
					case private[lhs.Name]:
					case redvars[lhs.Name]:
						emit(lhs.Name, nil, true, true, true, chain, guards)
					case mode == region.ModeReplicated:
					default:
						emit(lhs.Name, nil, true, true, false, chain, guards)
					}
					visitExpr(n.RHS, chain, guards)
				case *ir.Loop:
					visitExpr(n.Lo, chain, guards)
					visitExpr(n.Hi, chain, guards)
					savedPriv, savedRed := map[string]bool{}, map[string]bool{}
					if n.Parallel {
						for _, p := range n.Private {
							savedPriv[p] = private[p]
							private[p] = true
						}
						for _, r := range n.Reductions {
							savedRed[r.Var] = redvars[r.Var]
							redvars[r.Var] = true
						}
					}
					visitStmts(n.Body, append(chain, n), guards)
					if n.Parallel {
						for p, old := range savedPriv {
							private[p] = old
						}
						for r, old := range savedRed {
							redvars[r] = old
						}
					}
				case *ir.If:
					visitExpr(n.Cond, chain, guards)
					visitStmts(n.Then, chain, append(guards, cond{expr: n.Cond}))
					visitStmts(n.Else, chain, append(guards, cond{expr: n.Cond, negated: true}))
				}
			}
		}
		visitStmts([]ir.Stmt{top}, nil, nil)
	}
	return out
}

// placementOf finds the placement of the first distributed loop in the
// access's chain. distributed is false for master- or replicated-executed
// accesses; a distributed loop with no placement returns (nil, true) and is
// treated conservatively.
func (a *analyzer) placementOf(x acc) (pl *decomp.Placement, distributed bool) {
	for _, l := range x.chain {
		if l.Parallel || a.plan.Wavefront[l] {
			return a.plan.Placements[l], true
		}
	}
	return nil, false
}

// classify decides the verdict for one ordered access pair.
func (a *analyzer) classify(x, y acc, outer []*ir.Loop, carrier *ir.Loop) (FlowClass, bool, bool, *pairRep) {
	plX, parX := a.placementOf(x)
	plY, parY := a.placementOf(y)
	replX := x.mode == region.ModeReplicated
	replY := y.mode == region.ModeReplicated

	// Both master-executed: the same processor touches both sides.
	if !parX && !parY && !replX && !replY {
		return FlowNone, false, false, nil
	}

	if a.plan.Kind == decomp.Cyclic {
		return a.classifyCyclic(x, y, outer, carrier)
	}

	// Comparable spaces: two parallel placements share a block size only
	// when their space extents match; a placement varying with the
	// carrier index has a different geometry each iteration.
	if parX && parY && plX != nil && plY != nil && plX.Space.Key != plY.Space.Key {
		return FlowGeneral, false, false, a.crossSpaceRep(x, y, outer, carrier)
	}
	if carrier != nil {
		for _, pl := range []*decomp.Placement{plX, plY} {
			if pl == nil {
				continue
			}
			for _, oi := range pl.OuterIndices {
				if oi == carrier.Index {
					return FlowGeneral, false, false, nil
				}
			}
		}
	}

	ps := newPairSys(a, outer, carrier)
	u1, ok1 := ps.side(x, "$p", ps.carrierP)
	u2, ok2 := ps.side(y, "$c", ps.carrierC)
	if !ok1 || !ok2 {
		return FlowGeneral, false, false, nil
	}
	subs, ok := ps.equateSubscripts(x, y, "$p", "$c")
	if !ok {
		return FlowGeneral, false, false, nil
	}

	bs := linear.VarExpr(blockVar)
	du := linear.VarExpr(u2).Sub(linear.VarExpr(u1))
	upSys := ps.sys.Copy().Add(linear.GE(du, bs))
	downSys := ps.sys.Copy().Add(linear.GE(du.Neg(), bs))
	up := a.feasible(upSys)
	down := a.feasible(downSys)
	if !up && !down {
		return FlowNone, false, false, nil
	}
	rep := &pairRep{array: x.name, subs: subs, u1: u1, u2: u2,
		prodIdx: ps.idxVars["$p"], consIdx: ps.idxVars["$c"]}
	if up {
		rep.upSys = upSys
	}
	if down {
		rep.downSys = downSys
	}

	farUp := up && a.feasible(ps.sys.Copy().Add(linear.GE(du, bs.Scale(2))))
	farDown := down && a.feasible(ps.sys.Copy().Add(linear.GE(du.Neg(), bs.Scale(2))))
	if !farUp && !farDown {
		// Adjacent blocks only: consumer above producer waits on its
		// lower neighbor, consumer below waits on its upper neighbor.
		return FlowNeighbor, up, down, rep
	}
	return FlowGeneral, false, false, rep
}

// crossSpaceRep builds a witness-only representative for a pair whose
// placements live in different spaces. Block geometry is not comparable
// across spaces — the verdict is already FlowGeneral — but a concrete
// counterexample still exists: pin B = 1 (realizable at runtime whenever
// the worker count covers both spaces), where the owner of coordinate c is
// exactly rank c-1 on either side, so distinct origins are distinct
// processors.
func (a *analyzer) crossSpaceRep(x, y acc, outer []*ir.Loop, carrier *ir.Loop) *pairRep {
	ps := newPairSys(a, outer, carrier)
	ps.sys.AddEQ(linear.VarExpr(blockVar), linear.NewAffine(1))
	u1, ok1 := ps.side(x, "$p", ps.carrierP)
	u2, ok2 := ps.side(y, "$c", ps.carrierC)
	if !ok1 || !ok2 {
		return nil
	}
	subs, ok := ps.equateSubscripts(x, y, "$p", "$c")
	if !ok {
		return nil
	}
	du := linear.VarExpr(u2).Sub(linear.VarExpr(u1))
	rep := &pairRep{array: x.name, subs: subs, u1: u1, u2: u2,
		prodIdx: ps.idxVars["$p"], consIdx: ps.idxVars["$c"]}
	if up := ps.sys.Copy().AddGE(du, linear.NewAffine(1)); a.feasible(up) {
		rep.upSys = up
	}
	if down := ps.sys.Copy().AddGE(du.Neg(), linear.NewAffine(1)); a.feasible(down) {
		rep.downSys = down
	}
	if rep.upSys == nil && rep.downSys == nil {
		return nil
	}
	return rep
}

// classifyCyclic handles cyclic plans, where block geometry is meaningless:
// equal placement coordinates imply the same owner; any provable coordinate
// difference may communicate.
func (a *analyzer) classifyCyclic(x, y acc, outer []*ir.Loop, carrier *ir.Loop) (FlowClass, bool, bool, *pairRep) {
	ps := newPairSys(a, outer, carrier)
	if _, ok := ps.side(x, "$p", ps.carrierP); !ok {
		return FlowGeneral, false, false, nil
	}
	if _, ok := ps.side(y, "$c", ps.carrierC); !ok {
		return FlowGeneral, false, false, nil
	}
	if _, ok := ps.equateSubscripts(x, y, "$p", "$c"); !ok {
		return FlowGeneral, false, false, nil
	}
	x1, ok1 := ps.coord["$p"]
	x2, ok2 := ps.coord["$c"]
	if ok1 && ok2 {
		lt := a.feasible(ps.sys.Copy().AddGE(x2.Sub(x1), linear.NewAffine(1)))
		gt := a.feasible(ps.sys.Copy().AddGE(x1.Sub(x2), linear.NewAffine(1)))
		if !lt && !gt {
			return FlowNone, false, false, nil
		}
	}
	return FlowGeneral, false, false, nil
}

// pairSys builds the linear system for one access pair: shared outer loop
// indices, per-side carrier iterations (producer strictly earlier), per-side
// loop chains with bounds, block-ownership constraints for the first
// distributed loop of each side, and affine guard conditions.
type pairSys struct {
	a        *analyzer
	sys      *linear.System
	outer    []*ir.Loop
	carrier  *ir.Loop
	carrierP linear.Var // producer-side carrier iteration
	carrierC linear.Var // consumer-side carrier iteration
	// envs/idxVars per side suffix ("" = shared outer scope).
	envs    map[string]*ir.AffineEnv
	idxVars map[string]map[string]linear.Var
	// coord records each side's placement coordinate expression.
	coord map[string]linear.Affine
}

func newPairSys(a *analyzer, outer []*ir.Loop, carrier *ir.Loop) *pairSys {
	ps := &pairSys{
		a: a, sys: a.assume.Copy(), outer: outer, carrier: carrier,
		envs:    map[string]*ir.AffineEnv{},
		idxVars: map[string]map[string]linear.Var{},
		coord:   map[string]linear.Affine{},
	}
	ps.sys.AddGE(linear.VarExpr(blockVar), linear.NewAffine(1))

	shared := ir.NewAffineEnv(a.prog)
	sharedIdx := map[string]linear.Var{}
	for _, ol := range outer {
		v := linear.Loop(ol.Index)
		shared.Bind(ol.Index, v)
		sharedIdx[ol.Index] = v
		ps.addBounds(shared, ol, v)
	}
	ps.envs[""] = shared
	ps.idxVars[""] = sharedIdx

	if carrier != nil {
		ps.carrierP = linear.Loop(carrier.Index + "$kp")
		envP := shared.Clone().Bind(carrier.Index, ps.carrierP)
		ps.addBounds(envP, carrier, ps.carrierP)
		ps.carrierC = linear.Loop(carrier.Index + "$kc")
		envC := shared.Clone().Bind(carrier.Index, ps.carrierC)
		ps.addBounds(envC, carrier, ps.carrierC)
		// Producer iteration strictly precedes consumer iteration.
		ps.sys.AddGE(linear.VarExpr(ps.carrierC), linear.VarExpr(ps.carrierP).AddConst(1))
	}
	return ps
}

func (ps *pairSys) addBounds(env *ir.AffineEnv, l *ir.Loop, v linear.Var) bool {
	lo, ok1 := env.Affine(l.Lo)
	hi, ok2 := env.Affine(l.Hi)
	if !ok1 || !ok2 {
		return false
	}
	ps.sys.AddRange(v, lo, hi)
	return true
}

// side constrains where access x executes under copy suffix sfx and returns
// its processor block-origin variable.
func (ps *pairSys) side(x acc, sfx string, carrierVar linear.Var) (linear.Var, bool) {
	env := ps.envs[""].Clone()
	// Frozen index arrays with affine content (the certifier's own irreg
	// facts) resolve indirect subscripts and array-valued loop bounds to
	// affine form. The hook is disabled for accesses inside the guarded
	// setup statements that still define those arrays.
	if f := ps.a.facts; f != nil && !f.Setup[x.stmt] {
		env.SetArrayContent(f.Content)
	}
	idx := map[string]linear.Var{}
	for k, v := range ps.idxVars[""] {
		idx[k] = v
	}
	if ps.carrier != nil {
		env.Bind(ps.carrier.Index, carrierVar)
		idx[ps.carrier.Index] = carrierVar
	}

	u := linear.Proc("u" + sfx)
	ps.sys.AddGE(linear.VarExpr(u), linear.NewAffine(0))

	placed := false
	for _, l := range x.chain {
		v := linear.Loop(l.Index + sfx)
		env.Bind(l.Index, v)
		idx[l.Index] = v
		if !ps.addBounds(env, l, v) {
			return u, false
		}
		if (l.Parallel || ps.a.plan.Wavefront[l]) && !placed {
			pl := ps.a.plan.Placements[l]
			if pl == nil {
				return u, false
			}
			off := renameLoopVars(pl.Offset, idx)
			ext := renameLoopVars(pl.Space.Extent, idx)
			coord := linear.VarExpr(v).Add(off)
			// Block ownership: u+1 <= coord <= u+B, coord inside
			// the space, u a valid block origin.
			ps.sys.AddGE(coord, linear.VarExpr(u).AddConst(1))
			ps.sys.AddLE(coord, linear.VarExpr(u).Add(linear.VarExpr(blockVar)))
			ps.sys.AddGE(coord, linear.NewAffine(1))
			ps.sys.AddLE(coord, ext)
			ps.sys.AddLE(linear.VarExpr(u), ext.AddConst(-1))
			ps.coord[sfx] = coord
			placed = true
		}
	}
	if !placed && x.mode != region.ModeReplicated {
		// Master-executed: pinned to block origin 0.
		ps.sys.AddEQ(linear.VarExpr(u), linear.NewAffine(0))
	}
	for _, g := range x.guards {
		ps.addGuard(g.expr, g.negated, env)
	}
	ps.envs[sfx] = env
	ps.idxVars[sfx] = idx
	return u, true
}

// addGuard conjoins the affine content of a guard condition; non-affine or
// disjunctive pieces are dropped, which only relaxes the system.
func (ps *pairSys) addGuard(e ir.Expr, negated bool, env *ir.AffineEnv) {
	switch n := e.(type) {
	case *ir.Unary:
		if n.Op == '!' {
			ps.addGuard(n.X, !negated, env)
		}
	case *ir.Bin:
		switch n.Op {
		case ir.AndOp:
			if !negated {
				ps.addGuard(n.L, false, env)
				ps.addGuard(n.R, false, env)
			}
		case ir.OrOp:
			if negated {
				ps.addGuard(n.L, true, env)
				ps.addGuard(n.R, true, env)
			}
		case ir.EqOp, ir.NeOp, ir.LtOp, ir.LeOp, ir.GtOp, ir.GeOp:
			lft, ok1 := env.Affine(n.L)
			rgt, ok2 := env.Affine(n.R)
			if !ok1 || !ok2 {
				return
			}
			op := n.Op
			if negated {
				switch op {
				case ir.EqOp:
					op = ir.NeOp
				case ir.NeOp:
					op = ir.EqOp
				case ir.LtOp:
					op = ir.GeOp
				case ir.LeOp:
					op = ir.GtOp
				case ir.GtOp:
					op = ir.LeOp
				case ir.GeOp:
					op = ir.LtOp
				}
			}
			switch op {
			case ir.EqOp:
				ps.sys.AddEQ(lft, rgt)
			case ir.NeOp:
				// Disjunction: skip.
			case ir.LtOp:
				ps.sys.AddLE(lft, rgt.AddConst(-1))
			case ir.LeOp:
				ps.sys.AddLE(lft, rgt)
			case ir.GtOp:
				ps.sys.AddGE(lft, rgt.AddConst(1))
			case ir.GeOp:
				ps.sys.AddGE(lft, rgt)
			}
		}
	}
}

// equateSubscripts constrains both references to touch the same array
// element and returns the producer-side subscript affines.
func (ps *pairSys) equateSubscripts(x, y acc, sfxX, sfxY string) ([]linear.Affine, bool) {
	if x.scalar || y.scalar {
		return nil, true
	}
	subsX, okX := ps.envs[sfxX].AffineSubs(x.ref)
	subsY, okY := ps.envs[sfxY].AffineSubs(y.ref)
	if !okX || !okY || len(subsX) != len(subsY) {
		return nil, false
	}
	for d := range subsX {
		ps.sys.AddEQ(subsX[d], subsY[d])
	}
	return subsX, true
}

// renameLoopVars rewrites loop-kind variables in aff to this pair's copies.
func renameLoopVars(aff linear.Affine, idx map[string]linear.Var) linear.Affine {
	out := aff
	for _, v := range aff.Vars() {
		if v.Kind != linear.KindLoop {
			continue
		}
		if nv, ok := idx[v.Name]; ok && nv != v {
			out = out.Substitute(v, linear.VarExpr(nv))
		}
	}
	return out
}
