package exec

// The reference statement engine: the tree-walking evaluator that was the
// executor's `Interp` backend until PR 13, moved here unchanged so the
// bitwise parity gate (TestBackendParity) and the fuzzer's dual-engine
// differential keep comparing the closure frame against exactly the code
// they always compared it against. It implements the same engine interface
// as frameEngine and is selected per runner by UseReferenceEngine
// (export_test.go); nothing outside the tests can reach it.

import (
	"fmt"
	"math"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sanitize"
)

// refEngine is one worker's reference engine: its evaluation environment
// plus the run's statement → sanitizer-site lookup.
type refEngine struct {
	env *wenv
	run *teamRun
	// indexName maps a loop-index register back to the name the
	// environment binds (the steps address their loops by register).
	indexName map[int]string
}

func newRefEngine(run *teamRun, w int) engine {
	e := &refEngine{env: newWenv(run.ps), run: run, indexName: map[int]string{}}
	ir.WalkStmts(run.prog.Body, func(s ir.Stmt) bool {
		if l, ok := s.(*ir.Loop); ok {
			if reg, ok := run.exe.Layout().IndexReg(l.Index); ok {
				e.indexName[reg] = l.Index
			}
		}
		return true
	})
	if run.san != nil {
		e.env.san = run.san.tr
		e.env.sw = w
	}
	return e
}

func (e *refEngine) bounds(at *stepAt) (lo, hi int64, err error) {
	l := at.loop
	lo, err = e.env.evalInt(l.Lo)
	if err != nil {
		return 0, 0, err
	}
	hi, err = e.env.evalInt(l.Hi)
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

func (e *refEngine) probeBounds(at *stepAt) (lo, hi int64, ok bool) {
	lo, err1 := e.env.evalInt(at.loop.Lo)
	hi, err2 := e.env.evalInt(at.loop.Hi)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return lo, hi, true
}

// setIndex binds a sequential loop the steps drive. Like a frame
// register, the binding outlives the loop.
func (e *refEngine) setIndex(reg int, v int64) { e.env.idx[e.indexName[reg]] = v }

func (e *refEngine) enter(*stepAt) {}

func (e *refEngine) runSlice(at *stepAt, start, end, step int64) error {
	l, err := at.loop, error(nil)
	for i := start; i <= end && err == nil; i += step {
		e.env.idx[l.Index] = i
		err = e.exec(l.Body)
	}
	delete(e.env.idx, l.Index)
	return err
}

func (e *refEngine) exec(stmts []ir.Stmt) error {
	for _, s := range stmts {
		if san := e.run.san; san != nil {
			ord, _ := e.run.exe.Ordinal(s)
			e.env.site = san.sites[ord]
		}
		switch n := s.(type) {
		case *ir.Assign:
			if err := e.env.assign(n); err != nil {
				return err
			}
		case *ir.Loop:
			lo, err := e.env.evalInt(n.Lo)
			if err != nil {
				return err
			}
			hi, err := e.env.evalInt(n.Hi)
			if err != nil {
				return err
			}
			for i := lo; i <= hi && err == nil; i++ {
				e.env.idx[n.Index] = i
				err = e.exec(n.Body)
			}
			delete(e.env.idx, n.Index)
			if err != nil {
				return err
			}
		case *ir.If:
			c, err := e.env.evalBool(n.Cond)
			if err != nil {
				return err
			}
			if c {
				err = e.exec(n.Then)
			} else {
				err = e.exec(n.Else)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *refEngine) setPriv(name string, cell *float64) (old *float64) {
	old, e.env.priv[name] = e.env.priv[name], cell
	return old
}

func (e *refEngine) setRepl(on bool) { e.env.repl = on }

func (e *refEngine) done() {}

// wenv is one worker's evaluation environment: shared storage plus
// worker-local loop indices, privatized scalars and reduction partials.
type wenv struct {
	ps  *pstate
	idx map[string]int64
	// priv maps privatized/reduction scalar names to worker-local cells;
	// nil entries mean the name is currently shared.
	priv map[string]*float64
	// san, when non-nil, receives every shared read/write for the
	// schedule-soundness audit; sw is this worker's rank, site the id of
	// the statement currently executing, and repl marks replicated-mode
	// execution (same-value stores from every worker, exempt from checks).
	san  *sanitize.Tracker
	sw   int
	site uint16
	repl bool
}

func newWenv(ps *pstate) *wenv {
	return &wenv{ps: ps, idx: map[string]int64{}, priv: map[string]*float64{}}
}

func (e *wenv) evalInt(x ir.Expr) (int64, error) {
	switch n := x.(type) {
	case *ir.Num:
		if !n.IsInt {
			return 0, fmt.Errorf("%s: float literal in integer context", n.P)
		}
		return n.Int, nil
	case *ir.Ref:
		if n.IsArray() {
			// Indirect access: an index-array element used as a
			// subscript or loop bound. The stored float must hold
			// an exact integer.
			a := e.ps.arrays[n.Name]
			if a == nil {
				return 0, fmt.Errorf("%s: unknown array %s", n.P, n.Name)
			}
			off, err := e.offset(a, n.Subs, n.P)
			if err != nil {
				return 0, err
			}
			if e.san != nil {
				e.san.Read(e.sw, n.Name, off, e.site)
			}
			v := a.Data[off]
			iv := int64(v)
			if float64(iv) != v {
				return 0, fmt.Errorf("%s: array %s element = %v is not an integer subscript value", n.P, n.Name, v)
			}
			return iv, nil
		}
		if v, ok := e.idx[n.Name]; ok {
			return v, nil
		}
		if v, ok := e.ps.params[n.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("%s: %s is not an integer parameter or loop index", n.P, n.Name)
	case *ir.Unary:
		if n.Op != '-' {
			return 0, fmt.Errorf("%s: logical operator in integer context", n.P)
		}
		v, err := e.evalInt(n.X)
		return -v, err
	case *ir.Bin:
		l, err := e.evalInt(n.L)
		if err != nil {
			return 0, err
		}
		r, err := e.evalInt(n.R)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case ir.Add:
			return l + r, nil
		case ir.Sub:
			return l - r, nil
		case ir.Mul:
			return l * r, nil
		case ir.Div:
			if r == 0 {
				return 0, fmt.Errorf("%s: integer division by zero", n.P)
			}
			q := l / r
			if l%r != 0 && (l < 0) != (r < 0) {
				q--
			}
			return q, nil
		default:
			return 0, fmt.Errorf("%s: operator %s in integer context", n.P, n.Op)
		}
	case *ir.Call:
		switch n.Name {
		case "mod":
			l, err := e.evalInt(n.Args[0])
			if err != nil {
				return 0, err
			}
			r, err := e.evalInt(n.Args[1])
			if err != nil {
				return 0, err
			}
			if r == 0 {
				return 0, fmt.Errorf("%s: mod by zero", n.P)
			}
			m := l % r
			if m != 0 && (m < 0) != (r < 0) {
				m += r
			}
			return m, nil
		case "min", "max":
			l, err := e.evalInt(n.Args[0])
			if err != nil {
				return 0, err
			}
			r, err := e.evalInt(n.Args[1])
			if err != nil {
				return 0, err
			}
			if (n.Name == "min") == (l < r) {
				return l, nil
			}
			return r, nil
		}
		return 0, fmt.Errorf("%s: intrinsic %s in integer context", n.P, n.Name)
	default:
		return 0, fmt.Errorf("unhandled integer expression %T", x)
	}
}

func (e *wenv) readName(name string, pos ir.Pos) (float64, error) {
	if v, ok := e.idx[name]; ok {
		return float64(v), nil
	}
	if v, ok := e.ps.params[name]; ok {
		return float64(v), nil
	}
	if cell := e.priv[name]; cell != nil {
		return *cell, nil
	}
	if i, ok := e.ps.scalarIdx[name]; ok {
		if e.san != nil {
			e.san.Read(e.sw, name, 0, e.site)
		}
		return e.ps.loadScalar(i), nil
	}
	return 0, fmt.Errorf("%s: unknown name %s", pos, name)
}

func (e *wenv) evalFloat(x ir.Expr) (float64, error) {
	switch n := x.(type) {
	case *ir.Num:
		return n.Val, nil
	case *ir.Ref:
		if !n.IsArray() {
			return e.readName(n.Name, n.P)
		}
		a := e.ps.arrays[n.Name]
		if a == nil {
			return 0, fmt.Errorf("%s: unknown array %s", n.P, n.Name)
		}
		off, err := e.offset(a, n.Subs, n.P)
		if err != nil {
			return 0, err
		}
		if e.san != nil {
			e.san.Read(e.sw, n.Name, off, e.site)
		}
		return a.Data[off], nil
	case *ir.Unary:
		if n.Op == '-' {
			v, err := e.evalFloat(n.X)
			return -v, err
		}
		b, err := e.evalBool(n.X)
		if err != nil {
			return 0, err
		}
		if b {
			return 0, nil
		}
		return 1, nil
	case *ir.Bin:
		if n.Op.IsCompare() || n.Op == ir.AndOp || n.Op == ir.OrOp {
			b, err := e.evalBool(n)
			if err != nil {
				return 0, err
			}
			if b {
				return 1, nil
			}
			return 0, nil
		}
		l, err := e.evalFloat(n.L)
		if err != nil {
			return 0, err
		}
		r, err := e.evalFloat(n.R)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case ir.Add:
			return l + r, nil
		case ir.Sub:
			return l - r, nil
		case ir.Mul:
			return l * r, nil
		case ir.Div:
			return l / r, nil
		default:
			return 0, fmt.Errorf("%s: unhandled operator %s", n.P, n.Op)
		}
	case *ir.Call:
		args := make([]float64, len(n.Args))
		for i, a := range n.Args {
			v, err := e.evalFloat(a)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		switch n.Name {
		case "sqrt":
			return math.Sqrt(args[0]), nil
		case "abs":
			return math.Abs(args[0]), nil
		case "exp":
			return math.Exp(args[0]), nil
		case "log":
			return math.Log(args[0]), nil
		case "sin":
			return math.Sin(args[0]), nil
		case "cos":
			return math.Cos(args[0]), nil
		case "min":
			return math.Min(args[0], args[1]), nil
		case "max":
			return math.Max(args[0], args[1]), nil
		case "pow":
			return math.Pow(args[0], args[1]), nil
		case "mod":
			return math.Mod(args[0], args[1]), nil
		default:
			return 0, fmt.Errorf("%s: unknown intrinsic %s", n.P, n.Name)
		}
	default:
		return 0, fmt.Errorf("unhandled expression %T", x)
	}
}

func (e *wenv) evalBool(x ir.Expr) (bool, error) {
	switch n := x.(type) {
	case *ir.Bin:
		switch n.Op {
		case ir.AndOp:
			l, err := e.evalBool(n.L)
			if err != nil || !l {
				return false, err
			}
			return e.evalBool(n.R)
		case ir.OrOp:
			l, err := e.evalBool(n.L)
			if err != nil || l {
				return l, err
			}
			return e.evalBool(n.R)
		case ir.EqOp, ir.NeOp, ir.LtOp, ir.LeOp, ir.GtOp, ir.GeOp:
			l, err := e.evalFloat(n.L)
			if err != nil {
				return false, err
			}
			r, err := e.evalFloat(n.R)
			if err != nil {
				return false, err
			}
			switch n.Op {
			case ir.EqOp:
				return l == r, nil
			case ir.NeOp:
				return l != r, nil
			case ir.LtOp:
				return l < r, nil
			case ir.LeOp:
				return l <= r, nil
			case ir.GtOp:
				return l > r, nil
			default:
				return l >= r, nil
			}
		}
	case *ir.Unary:
		if n.Op == '!' {
			b, err := e.evalBool(n.X)
			return !b, err
		}
	}
	v, err := e.evalFloat(x)
	return v != 0, err
}

func (e *wenv) offset(a *interp.ArrayVal, subs []ir.Expr, pos ir.Pos) (int64, error) {
	vals := make([]int64, len(subs))
	for i, s := range subs {
		v, err := e.evalInt(s)
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	off, err := a.Offset(vals)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", pos, err)
	}
	return off, nil
}

// assign executes one assignment for this worker.
func (e *wenv) assign(a *ir.Assign) error {
	v, err := e.evalFloat(a.RHS)
	if err != nil {
		return err
	}
	lhs := a.LHS
	if lhs.IsArray() {
		arr := e.ps.arrays[lhs.Name]
		if arr == nil {
			return fmt.Errorf("%s: unknown array %s", lhs.P, lhs.Name)
		}
		off, err := e.offset(arr, lhs.Subs, lhs.P)
		if err != nil {
			return err
		}
		if e.san != nil {
			e.san.Write(e.sw, lhs.Name, off, e.site, e.repl)
		}
		arr.Data[off] = v
		return nil
	}
	if cell := e.priv[lhs.Name]; cell != nil {
		*cell = v
		return nil
	}
	if i, ok := e.ps.scalarIdx[lhs.Name]; ok {
		if e.san != nil {
			e.san.Write(e.sw, lhs.Name, 0, e.site, e.repl)
		}
		e.ps.storeScalar(i, v)
		return nil
	}
	return fmt.Errorf("%s: assignment to unknown scalar %s", lhs.P, lhs.Name)
}
