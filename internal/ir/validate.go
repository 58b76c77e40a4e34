package ir

import "fmt"

// ValidationError describes a semantic problem found by Validate.
type ValidationError struct {
	P   Pos
	Msg string
}

func (e *ValidationError) Error() string {
	if e.P.Line > 0 {
		return fmt.Sprintf("%s: %s", e.P, e.Msg)
	}
	return e.Msg
}

// Validate checks program well-formedness: all names declared exactly once,
// references match declarations (scalar vs array, subscript arity), loop
// indices not shadowed or assigned, array extents affine in the parameters.
// It returns all problems found.
func Validate(p *Program) []error {
	var errs []error
	bad := func(pos Pos, format string, args ...any) {
		errs = append(errs, &ValidationError{P: pos, Msg: fmt.Sprintf(format, args...)})
	}

	kind := map[string]string{}
	declare := func(name, k string, pos Pos) {
		if prev, dup := kind[name]; dup {
			bad(pos, "%s redeclared (previously a %s)", name, prev)
			return
		}
		kind[name] = k
	}
	for _, s := range p.Params {
		declare(s, "param", p.PosOf(s))
	}
	for _, a := range p.Arrays {
		pos := a.P
		if pos.Line == 0 {
			pos = p.PosOf(a.Name)
		}
		declare(a.Name, "array", pos)
		env := NewAffineEnv(p)
		for d, dim := range a.Dims {
			if _, ok := env.Affine(dim); !ok && !paramExtent(p, dim) {
				bad(dim.Pos(), "array %s dimension %d extent %q is neither affine nor an integer expression in the parameters",
					a.Name, d+1, ExprString(dim))
			}
		}
		if len(a.Dims) == 0 {
			bad(pos, "array %s has no dimensions", a.Name)
		}
	}
	for _, s := range p.Scalars {
		declare(s, "scalar", p.PosOf(s))
	}

	arity := map[string]int{}
	for _, a := range p.Arrays {
		arity[a.Name] = a.Rank()
	}

	var checkStmts func(stmts []Stmt, loopIdx map[string]bool)
	var checkExpr func(e Expr, loopIdx map[string]bool, valueCtx bool)

	checkExpr = func(e Expr, loopIdx map[string]bool, valueCtx bool) {
		switch n := e.(type) {
		case nil:
			return
		case *Num:
		case *Ref:
			k, declared := kind[n.Name]
			isIdx := loopIdx[n.Name]
			switch {
			case n.IsArray():
				if !declared || k != "array" {
					bad(n.P, "%s is not a declared array", n.Name)
				} else if arity[n.Name] != len(n.Subs) {
					bad(n.P, "array %s has rank %d but %d subscripts given",
						n.Name, arity[n.Name], len(n.Subs))
				}
				for _, sub := range n.Subs {
					checkExpr(sub, loopIdx, false)
				}
			case isIdx:
			case declared:
				if k == "array" {
					bad(n.P, "array %s used without subscripts", n.Name)
				}
			default:
				bad(n.P, "undeclared name %s", n.Name)
			}
		case *Bin:
			checkExpr(n.L, loopIdx, valueCtx)
			checkExpr(n.R, loopIdx, valueCtx)
		case *Unary:
			checkExpr(n.X, loopIdx, valueCtx)
		case *Call:
			if !IsIntrinsic(n.Name) {
				bad(n.P, "unknown intrinsic %s", n.Name)
			} else if want := IntrinsicArity(n.Name); want != len(n.Args) {
				bad(n.P, "intrinsic %s takes %d argument(s), got %d", n.Name, want, len(n.Args))
			}
			for _, a := range n.Args {
				checkExpr(a, loopIdx, true)
			}
		}
	}

	checkStmts = func(stmts []Stmt, loopIdx map[string]bool) {
		for _, s := range stmts {
			switch n := s.(type) {
			case *Loop:
				if loopIdx[n.Index] {
					bad(n.P, "loop index %s shadows an enclosing loop index", n.Index)
				}
				if _, declared := kind[n.Index]; declared {
					bad(n.P, "loop index %s collides with a declared name", n.Index)
				}
				checkExpr(n.Lo, loopIdx, false)
				checkExpr(n.Hi, loopIdx, false)
				inner := map[string]bool{}
				for k := range loopIdx {
					inner[k] = true
				}
				inner[n.Index] = true
				checkStmts(n.Body, inner)
			case *Assign:
				if loopIdx[n.LHS.Name] {
					bad(n.P, "assignment to loop index %s", n.LHS.Name)
				} else if k, declared := kind[n.LHS.Name]; !declared {
					bad(n.P, "assignment to undeclared name %s", n.LHS.Name)
				} else if k == "param" {
					bad(n.P, "assignment to parameter %s", n.LHS.Name)
				} else if k == "array" && !n.LHS.IsArray() {
					bad(n.P, "assignment to array %s without subscripts", n.LHS.Name)
				} else if k == "scalar" && n.LHS.IsArray() {
					bad(n.P, "scalar %s assigned with subscripts", n.LHS.Name)
				}
				if n.LHS.IsArray() {
					for _, sub := range n.LHS.Subs {
						checkExpr(sub, loopIdx, false)
					}
					if arity[n.LHS.Name] != 0 && arity[n.LHS.Name] != len(n.LHS.Subs) {
						bad(n.P, "array %s has rank %d but %d subscripts given",
							n.LHS.Name, arity[n.LHS.Name], len(n.LHS.Subs))
					}
				}
				checkExpr(n.RHS, loopIdx, true)
			case *If:
				checkExpr(n.Cond, loopIdx, true)
				checkStmts(n.Then, loopIdx)
				checkStmts(n.Else, loopIdx)
			}
		}
	}
	checkStmts(p.Body, map[string]bool{})
	return errs
}

// paramExtent reports whether dim is an integer expression over the
// program parameters: params, integral literals, +, -, *, unary minus,
// and the integer intrinsics min/max/mod. Such extents are not affine,
// so static passes that need closed-form extents (decomposition votes,
// bound proofs) bail on them, but the runtime evaluates them exactly at
// launch; they are how index arrays for irregular kernels are sized.
func paramExtent(p *Program, dim Expr) bool {
	params := map[string]bool{}
	for _, s := range p.Params {
		params[s] = true
	}
	var ok func(Expr) bool
	ok = func(e Expr) bool {
		switch n := e.(type) {
		case *Num:
			return n.IsInt || float64(int64(n.Val)) == n.Val
		case *Ref:
			return !n.IsArray() && params[n.Name]
		case *Bin:
			if n.Op != Add && n.Op != Sub && n.Op != Mul {
				return false
			}
			return ok(n.L) && ok(n.R)
		case *Unary:
			return ok(n.X)
		case *Call:
			if n.Name != "min" && n.Name != "max" && n.Name != "mod" {
				return false
			}
			for _, a := range n.Args {
				if !ok(a) {
					return false
				}
			}
			return true
		}
		return false
	}
	return ok(dim)
}

var intrinsics = map[string]int{
	"sqrt": 1, "abs": 1, "exp": 1, "log": 1, "sin": 1, "cos": 1,
	"min": 2, "max": 2, "mod": 2, "pow": 2,
}

// IsIntrinsic reports whether name is a known intrinsic function.
func IsIntrinsic(name string) bool { _, ok := intrinsics[name]; return ok }

// IntrinsicArity returns the argument count of the intrinsic (0 if unknown).
func IntrinsicArity(name string) int { return intrinsics[name] }
