// Package deps implements array data-dependence analysis over affine loop
// nests, the front-end analysis the paper's parallelizer relies on
// ("Traditional parallelizing compilers perform scalar data-flow and array
// data-dependence analysis to track data access patterns", §3.1).
//
// Dependence existence is decided exactly (over rationals, conservatively
// over integers) by building a two-copy system of linear inequalities for a
// pair of references and testing feasibility with Fourier-Motzkin
// elimination. Non-affine subscripts or bounds degrade conservatively to
// "dependence assumed".
package deps

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/linear"
)

// Kind classifies a dependence by the access types of its endpoints.
type Kind int

const (
	// Flow is write→read (true dependence).
	Flow Kind = iota
	// Anti is read→write.
	Anti
	// Output is write→write.
	Output
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Access is an array reference with its enclosing loop chain.
type Access struct {
	Ref   *ir.Ref
	Stmt  ir.Stmt // the assignment containing the reference
	Loops []*ir.Loop
	Write bool
}

// Dep is a discovered (or conservatively assumed) data dependence between
// two accesses to the same array.
type Dep struct {
	Array string
	Kind  Kind
	Src   Access
	Dst   Access
	// Exact is false when the analysis gave up (non-affine subscript or
	// bound, solver bailout) and assumed the dependence.
	Exact bool
}

func (d Dep) String() string {
	return fmt.Sprintf("%s dep on %s: %s -> %s", d.Kind, d.Array,
		ir.ExprString(d.Src.Ref), ir.ExprString(d.Dst.Ref))
}

// CollectArrayAccesses gathers every array read and write in stmts,
// recording the loop chain (outermost first, starting from the provided
// enclosing chain).
func CollectArrayAccesses(stmts []ir.Stmt, enclosing []*ir.Loop) []Access {
	var out []Access
	collect(stmts, append([]*ir.Loop(nil), enclosing...), &out)
	return out
}

func collect(stmts []ir.Stmt, chain []*ir.Loop, out *[]Access) {
	for _, s := range stmts {
		switch n := s.(type) {
		case *ir.Assign:
			if n.LHS.IsArray() {
				*out = append(*out, Access{Ref: n.LHS, Stmt: s, Loops: append([]*ir.Loop(nil), chain...), Write: true})
			}
			collectExpr(n.RHS, s, chain, out)
			for _, sub := range n.LHS.Subs {
				collectExpr(sub, s, chain, out)
			}
		case *ir.Loop:
			collectExpr(n.Lo, s, chain, out)
			collectExpr(n.Hi, s, chain, out)
			collect(n.Body, append(chain, n), out)
		case *ir.If:
			collectExpr(n.Cond, s, chain, out)
			collect(n.Then, chain, out)
			collect(n.Else, chain, out)
		}
	}
}

func collectExpr(e ir.Expr, in ir.Stmt, chain []*ir.Loop, out *[]Access) {
	ir.WalkExprs(e, func(x ir.Expr) {
		if r, ok := x.(*ir.Ref); ok && r.IsArray() {
			*out = append(*out, Access{Ref: r, Stmt: in, Loops: append([]*ir.Loop(nil), chain...), Write: false})
		}
	})
}

// Context carries the program and symbolic assumptions (e.g. N >= 2) under
// which dependence questions are decided.
type Context struct {
	Prog *ir.Program
	// Assume holds extra constraints over the symbolic parameters. Every
	// parameter is additionally assumed >= 1.
	Assume *linear.System
}

// NewContext builds a Context with the default assumption that every
// parameter is at least minParam (use 1 unless the caller knows more).
func NewContext(prog *ir.Program, minParam int64) *Context {
	s := linear.NewSystem()
	for _, p := range prog.Params {
		s.AddGE(linear.VarExpr(linear.Sym(p)), linear.NewAffine(minParam))
	}
	return &Context{Prog: prog, Assume: s}
}

// kindOf classifies the dependence between an ordered (src, dst) pair.
func kindOf(srcWrite, dstWrite bool) (Kind, bool) {
	switch {
	case srcWrite && dstWrite:
		return Output, true
	case srcWrite:
		return Flow, true
	case dstWrite:
		return Anti, true
	default:
		return 0, false // read-read is not a dependence
	}
}

// CarriedByLoop reports the dependences carried by the given loop: pairs of
// accesses to the same array in different iterations of loop that touch the
// same element, with at least one write. outer is the chain of loops
// enclosing loop (their indices are treated as fixed symbols, since a
// carried dependence question is per-iteration of the enclosing nest).
func (ctx *Context) CarriedByLoop(loop *ir.Loop, outer []*ir.Loop) []Dep {
	accs := CollectArrayAccesses(loop.Body, nil)
	var out []Dep
	for _, a := range accs {
		for _, b := range accs {
			kind, isDep := kindOf(a.Write, b.Write)
			if !isDep || a.Ref.Name != b.Ref.Name {
				continue
			}
			// Ordered pair (a in an earlier iteration than b).
			res, exact := ctx.carriedPair(loop, outer, a, b)
			if res.MayHold() {
				out = append(out, Dep{Array: a.Ref.Name, Kind: kind, Src: a, Dst: b, Exact: exact})
			}
		}
	}
	return out
}

// Relation constrains the two copies of the tested loop's index.
type Relation int

const (
	// RelLT: the a-copy iteration strictly precedes the b-copy.
	RelLT Relation = iota
	// RelEQ: same iteration (loop-independent at this level).
	RelEQ
	// RelGT: the a-copy iteration strictly follows the b-copy.
	RelGT
)

// carriedPair tests RelLT: "iteration ia of loop executes access a, a later
// iteration ib executes access b, and they touch the same element".
func (ctx *Context) carriedPair(loop *ir.Loop, outer []*ir.Loop, a, b Access) (linear.Result, bool) {
	return ctx.pairWithRelation(loop, outer, a, b, RelLT)
}

// pairWithRelation builds and solves the two-copy system for the pair under
// the given index relation. exact reports whether the answer came from the
// solver rather than a conservative assumption.
func (ctx *Context) pairWithRelation(loop *ir.Loop, outer []*ir.Loop, a, b Access, rel Relation) (linear.Result, bool) {
	sys := ctx.Assume.Copy()

	// Shared environment for the fixed outer indices.
	shared := ir.NewAffineEnv(ctx.Prog)
	for _, ol := range outer {
		v := linear.Sym("$" + ol.Index) // fixed for the question
		shared.Bind(ol.Index, v)
		if !addLoopBounds(sys, shared, ol, v) {
			return linear.Feasible, false
		}
	}

	envA := shared.Clone()
	envB := shared.Clone()
	va := linear.Loop(loop.Index + "$a")
	vb := linear.Loop(loop.Index + "$b")
	envA.Bind(loop.Index, va)
	envB.Bind(loop.Index, vb)
	if !addLoopBounds(sys, envA, loop, va) || !addLoopBounds(sys, envB, loop, vb) {
		return linear.Feasible, false
	}
	switch rel {
	case RelLT: // strictly later iteration: ia + 1 <= ib
		sys.AddGE(linear.VarExpr(vb), linear.VarExpr(va).AddConst(1))
	case RelEQ:
		sys.AddEQ(linear.VarExpr(va), linear.VarExpr(vb))
	case RelGT:
		sys.AddGE(linear.VarExpr(va), linear.VarExpr(vb).AddConst(1))
	}

	// Inner loops enclosing each access (beyond `loop` itself) get their
	// own copies per side.
	if !bindInner(sys, envA, a.Loops, "$a") || !bindInner(sys, envB, b.Loops, "$b") {
		return linear.Feasible, false
	}

	// Subscript equality.
	subsA, okA := envA.AffineSubs(a.Ref)
	subsB, okB := envB.AffineSubs(b.Ref)
	if !okA || !okB {
		return linear.Feasible, false
	}
	if len(subsA) != len(subsB) {
		return linear.Feasible, false
	}
	for d := range subsA {
		sys.AddEQ(subsA[d], subsB[d])
	}
	return sys.Solve(), true
}

// addLoopBounds adds lo <= v <= hi for a loop under env; false when a bound
// is not affine.
func addLoopBounds(sys *linear.System, env *ir.AffineEnv, l *ir.Loop, v linear.Var) bool {
	lo, ok1 := env.Affine(l.Lo)
	hi, ok2 := env.Affine(l.Hi)
	if !ok1 || !ok2 {
		return false
	}
	sys.AddRange(v, lo, hi)
	return true
}

// bindInner binds the loops of an access chain (each gets a fresh variable
// with the given suffix) and adds their bounds. Returns false on non-affine
// bounds.
func bindInner(sys *linear.System, env *ir.AffineEnv, chain []*ir.Loop, suffix string) bool {
	for _, l := range chain {
		if _, bound := env.Affine(ir.NewRef(l.Index)); bound {
			// Already bound (shared/outer or the tested loop):
			// leave the binding in place.
			continue
		}
		v := linear.Loop(l.Index + suffix)
		env.Bind(l.Index, v)
		if !addLoopBounds(sys, env, l, v) {
			return false
		}
	}
	return true
}
