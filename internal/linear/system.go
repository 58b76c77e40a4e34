package linear

import (
	"fmt"
	"strings"
)

// Op is the relation of a constraint.
type Op int

const (
	// OpGE means expr >= 0.
	OpGE Op = iota
	// OpEQ means expr == 0.
	OpEQ
)

// Constraint is an affine expression related to zero: Expr >= 0 or Expr == 0.
type Constraint struct {
	Expr Affine
	Op   Op
}

// GE constructs the constraint a >= b.
func GE(a, b Affine) Constraint { return Constraint{Expr: a.Sub(b), Op: OpGE} }

// LE constructs the constraint a <= b.
func LE(a, b Affine) Constraint { return Constraint{Expr: b.Sub(a), Op: OpGE} }

// EQ constructs the constraint a == b.
func EQ(a, b Affine) Constraint { return Constraint{Expr: a.Sub(b), Op: OpEQ} }

// String renders the constraint, e.g. "i - j + 1 >= 0".
func (c Constraint) String() string {
	if c.Op == OpEQ {
		return c.Expr.String() + " == 0"
	}
	return c.Expr.String() + " >= 0"
}

// Negate returns the negation of an inequality constraint over the
// integers: ¬(e >= 0) ⇔ -e - 1 >= 0. Negating an equality is a
// disjunction, so Negate panics on OpEQ; callers split equalities first.
func (c Constraint) Negate() Constraint {
	if c.Op == OpEQ {
		panic("linear: cannot negate an equality into a single constraint")
	}
	return Constraint{Expr: c.Expr.Neg().AddConst(-1), Op: OpGE}
}

// System is a conjunction of constraints. The zero value is the empty
// (trivially satisfiable) system.
type System struct {
	Cons []Constraint
}

// NewSystem returns an empty system.
func NewSystem() *System { return &System{} }

// Add appends constraints to the system.
func (s *System) Add(cs ...Constraint) *System {
	s.Cons = append(s.Cons, cs...)
	return s
}

// AddGE adds a >= b.
func (s *System) AddGE(a, b Affine) *System { return s.Add(GE(a, b)) }

// AddLE adds a <= b.
func (s *System) AddLE(a, b Affine) *System { return s.Add(LE(a, b)) }

// AddEQ adds a == b.
func (s *System) AddEQ(a, b Affine) *System { return s.Add(EQ(a, b)) }

// AddRange adds lo <= v <= hi for affine bounds.
func (s *System) AddRange(v Var, lo, hi Affine) *System {
	x := VarExpr(v)
	return s.AddGE(x, lo).AddLE(x, hi)
}

// Copy returns an independent deep copy of the system.
func (s *System) Copy() *System {
	t := &System{Cons: make([]Constraint, len(s.Cons))}
	copy(t.Cons, s.Cons)
	return t
}

// Vars returns all variables mentioned by the system, in scan order.
func (s *System) Vars() []Var {
	var vs []Var
	for _, c := range s.Cons {
		vs = union(vs, c.Expr.terms)
	}
	return vs
}

// String renders the system one constraint per line.
func (s *System) String() string {
	var sb strings.Builder
	sb.WriteString("{")
	for i, c := range s.Cons {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(c.String())
	}
	sb.WriteString("}")
	return sb.String()
}

// Result is the outcome of a feasibility test.
type Result int

const (
	// Infeasible: the system has no integer solution. This is the
	// direction on which barrier elimination relies, so it is exact.
	Infeasible Result = iota
	// Feasible: the system has a rational solution and therefore may
	// have an integer one. Conservative in the sound direction for
	// synchronization: "may communicate".
	Feasible
	// Unknown: the solver gave up (size or overflow guard). Treated by
	// callers exactly like Feasible.
	Unknown
)

func (r Result) String() string {
	switch r {
	case Infeasible:
		return "infeasible"
	case Feasible:
		return "feasible"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// MayHold reports whether the result permits a solution (Feasible or
// Unknown).
func (r Result) MayHold() bool { return r != Infeasible }
