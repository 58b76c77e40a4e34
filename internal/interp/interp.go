package interp

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// Env evaluates expressions against a State plus current loop-index
// bindings. It is exported so the parallel executor can reuse the exact
// same evaluation semantics.
type Env struct {
	st  *State
	idx map[string]int64
	// StmtCount counts executed assignments, for workload reporting.
	StmtCount int64
}

func newEnv(st *State) *Env { return &Env{st: st, idx: map[string]int64{}} }

// NewEnv constructs an evaluation environment over st.
func NewEnv(st *State) *Env { return newEnv(st) }

// SetIndex binds a loop index value.
func (e *Env) SetIndex(name string, v int64) { e.idx[name] = v }

// ClearIndex removes a loop index binding.
func (e *Env) ClearIndex(name string) { delete(e.idx, name) }

// Index returns the value of a bound loop index.
func (e *Env) Index(name string) (int64, bool) { v, ok := e.idx[name]; return v, ok }

// EvalInt evaluates an integer (index) expression.
func (e *Env) EvalInt(x ir.Expr) (int64, error) { return e.evalInt(x) }

func (e *Env) evalInt(x ir.Expr) (int64, error) {
	switch n := x.(type) {
	case *ir.Num:
		if !n.IsInt {
			return 0, fmt.Errorf("%s: float literal %v in integer context", n.P, n.Val)
		}
		return n.Int, nil
	case *ir.Ref:
		if n.IsArray() {
			// Indirect access: an index-array element used as a
			// subscript or loop bound. The stored float must hold
			// an exact integer.
			a := e.st.Array(n.Name)
			if a == nil {
				return 0, fmt.Errorf("%s: unknown array %s", n.P, n.Name)
			}
			off, err := e.offsets(a, n.Subs, n.P)
			if err != nil {
				return 0, err
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
		if v, ok := e.st.Params[n.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("%s: %s is not an integer parameter or loop index", n.P, n.Name)
	case *ir.Unary:
		if n.Op != '-' {
			return 0, fmt.Errorf("%s: logical operator in integer context", n.P)
		}
		v, err := e.evalInt(n.X)
		if err != nil {
			return 0, err
		}
		return -v, nil
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
			// Floor division, matching the affine machinery.
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

func (e *Env) evalFloat(x ir.Expr) (float64, error) {
	switch n := x.(type) {
	case *ir.Num:
		return n.Val, nil
	case *ir.Ref:
		if n.IsArray() {
			a := e.st.Array(n.Name)
			if a == nil {
				return 0, fmt.Errorf("%s: unknown array %s", n.P, n.Name)
			}
			off, err := e.offsets(a, n.Subs, n.P)
			if err != nil {
				return 0, err
			}
			return a.Data[off], nil
		}
		if v, ok := e.idx[n.Name]; ok {
			return float64(v), nil
		}
		if v, ok := e.st.Params[n.Name]; ok {
			return float64(v), nil
		}
		if v, ok := e.st.Scalars[n.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("%s: unknown name %s", n.P, n.Name)
	case *ir.Unary:
		if n.Op == '-' {
			v, err := e.evalFloat(n.X)
			if err != nil {
				return 0, err
			}
			return -v, nil
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

func (e *Env) evalBool(x ir.Expr) (bool, error) {
	switch n := x.(type) {
	case *ir.Bin:
		switch n.Op {
		case ir.AndOp:
			l, err := e.evalBool(n.L)
			if err != nil {
				return false, err
			}
			if !l {
				return false, nil
			}
			return e.evalBool(n.R)
		case ir.OrOp:
			l, err := e.evalBool(n.L)
			if err != nil {
				return false, err
			}
			if l {
				return true, nil
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
		default:
			v, err := e.evalFloat(n)
			if err != nil {
				return false, err
			}
			return v != 0, nil
		}
	case *ir.Unary:
		if n.Op == '!' {
			b, err := e.evalBool(n.X)
			if err != nil {
				return false, err
			}
			return !b, nil
		}
		v, err := e.evalFloat(n)
		if err != nil {
			return false, err
		}
		return v != 0, nil
	default:
		v, err := e.evalFloat(x)
		if err != nil {
			return false, err
		}
		return v != 0, nil
	}
}

func (e *Env) offsets(a *ArrayVal, subs []ir.Expr, pos ir.Pos) (int64, error) {
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

// ExecAssign executes one assignment statement under the environment.
func (e *Env) ExecAssign(a *ir.Assign) error {
	v, err := e.evalFloat(a.RHS)
	if err != nil {
		return err
	}
	e.StmtCount++
	lhs := a.LHS
	if lhs.IsArray() {
		arr := e.st.Array(lhs.Name)
		if arr == nil {
			return fmt.Errorf("%s: unknown array %s", lhs.P, lhs.Name)
		}
		off, err := e.offsets(arr, lhs.Subs, lhs.P)
		if err != nil {
			return err
		}
		arr.Data[off] = v
		return nil
	}
	if _, ok := e.st.Scalars[lhs.Name]; !ok {
		return fmt.Errorf("%s: assignment to unknown scalar %s", lhs.P, lhs.Name)
	}
	e.st.Scalars[lhs.Name] = v
	return nil
}

// Run executes prog sequentially over a fresh deterministically-seeded
// state and returns the final state.
func Run(prog *ir.Program, params map[string]int64) (*State, error) {
	st, err := NewState(prog, params)
	if err != nil {
		return nil, err
	}
	st.SeedDeterministic()
	if err := RunOn(st); err != nil {
		return nil, err
	}
	return st, nil
}

// RunOn executes the state's program sequentially over existing storage
// (without reseeding).
func RunOn(st *State) error {
	env := newEnv(st)
	return execStmts(env, st.Prog.Body)
}

// RunCount is Run plus the number of assignment statements executed — the
// work unit the throughput benchmarks normalize elapsed time by, identical
// across backends because every backend executes the same assignments.
func RunCount(prog *ir.Program, params map[string]int64) (*State, int64, error) {
	st, err := NewState(prog, params)
	if err != nil {
		return nil, 0, err
	}
	st.SeedDeterministic()
	env := newEnv(st)
	if err := execStmts(env, st.Prog.Body); err != nil {
		return nil, 0, err
	}
	return st, env.StmtCount, nil
}

func execStmts(env *Env, stmts []ir.Stmt) error {
	for _, s := range stmts {
		if err := execStmt(env, s); err != nil {
			return err
		}
	}
	return nil
}

func execStmt(env *Env, s ir.Stmt) error {
	switch n := s.(type) {
	case *ir.Assign:
		return env.ExecAssign(n)
	case *ir.Loop:
		lo, err := env.evalInt(n.Lo)
		if err != nil {
			return err
		}
		hi, err := env.evalInt(n.Hi)
		if err != nil {
			return err
		}
		for v := lo; v <= hi; v++ {
			env.SetIndex(n.Index, v)
			if err := execStmts(env, n.Body); err != nil {
				return err
			}
		}
		env.ClearIndex(n.Index)
		return nil
	case *ir.If:
		c, err := env.evalBool(n.Cond)
		if err != nil {
			return err
		}
		if c {
			return execStmts(env, n.Then)
		}
		return execStmts(env, n.Else)
	default:
		return fmt.Errorf("unhandled statement %T", s)
	}
}
