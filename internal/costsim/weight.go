package costsim

import (
	"repro/internal/interp"
	"repro/internal/ir"
)

// weigher estimates computation in expression nodes under an environment
// that binds the parameters and the live loop indices: an assignment
// weighs its nodes, an If its condition plus its heavier arm, and a loop
// its iterations' bodies plus one node per iteration. The simulator and
// the width decision (EstimateRun) share it; the caller keeps ev's indices
// current.
type weigher struct {
	ev *interp.Env
	// unbound is the first loop whose bounds did not evaluate to integers
	// (a bound read from an index array, such as a CSR row's): it weighed
	// nothing.
	unbound *ir.Loop
}

// stmts is the weight of a statement list.
func (w *weigher) stmts(stmts []ir.Stmt) float64 {
	var sum float64
	for _, st := range stmts {
		sum += w.stmt(st)
	}
	return sum
}

// stmt is the weight of one statement.
func (w *weigher) stmt(st ir.Stmt) float64 {
	switch n := st.(type) {
	case *ir.Assign:
		return float64(exprNodes(n.LHS) + exprNodes(n.RHS))
	case *ir.If:
		return float64(exprNodes(n.Cond)) + max(w.stmts(n.Then), w.stmts(n.Else))
	case *ir.Loop:
		lo, hi, ok := w.bounds(n)
		if !ok {
			return 0
		}
		return w.iterations(n, lo, hi, 1) + float64(max(hi-lo+1, 0))
	default:
		return 0
	}
}

// bounds evaluates a loop's bounds; ok is false when they do not evaluate
// to integers.
func (w *weigher) bounds(l *ir.Loop) (lo, hi int64, ok bool) {
	lo, err1 := w.ev.EvalInt(l.Lo)
	hi, err2 := w.ev.EvalInt(l.Hi)
	if err1 != nil || err2 != nil {
		if w.unbound == nil {
			w.unbound = l
		}
		return 0, 0, false
	}
	return lo, hi, true
}

// iterations is the weight of l's body over its iterations first, first
// +step, ... up to last. A body whose weight cannot depend on l's index —
// no loop bound in it reads the index — is weighed once and multiplied by
// the iteration count; any other is weighed at every iteration. Weights
// are whole node counts, so the product is the sum exactly.
func (w *weigher) iterations(l *ir.Loop, first, last, step int64) float64 {
	if first > last {
		return 0
	}
	if !readsIndex(l.Body, l.Index) {
		return float64((last-first)/step+1) * w.stmts(l.Body)
	}
	var sum float64
	for i := first; i <= last; i += step {
		w.ev.SetIndex(l.Index, i)
		sum += w.stmts(l.Body)
	}
	w.ev.ClearIndex(l.Index)
	return sum
}

// readsIndex reports whether a loop bound among stmts, at any depth, reads
// index.
func readsIndex(stmts []ir.Stmt, index string) bool {
	found := false
	ir.WalkStmts(stmts, func(st ir.Stmt) bool {
		if l, ok := st.(*ir.Loop); ok && (reads(l.Lo, index) || reads(l.Hi, index)) {
			found = true
		}
		return !found
	})
	return found
}

// reads reports whether e reads the scalar or index name.
func reads(e ir.Expr, name string) bool {
	found := false
	ir.WalkExprs(e, func(x ir.Expr) {
		if r, ok := x.(*ir.Ref); ok && !r.IsArray() && r.Name == name {
			found = true
		}
	})
	return found
}

// exprNodes counts e's expression nodes.
func exprNodes(e ir.Expr) int {
	n := 0
	ir.WalkExprs(e, func(ir.Expr) { n++ })
	return n
}
