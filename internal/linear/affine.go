// Package linear implements symbolic affine expressions and systems of
// linear inequalities over integer variables, together with a
// Fourier-Motzkin decision procedure.
//
// This is the representation the paper uses for computation partitions and
// data communication: "local definitions and nonlocal accesses are both
// represented by systems of symbolic linear inequalities" (§3.2.1).
// Variables carry a kind so systems can be scanned in the paper's order:
// symbolics, processors, loop index variables, array indices.
package linear

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// VarKind classifies a variable for the Fourier-Motzkin scan order.
// The paper sorts variables as symbolics < processors < loop indices <
// array indices and scans outermost-first; elimination proceeds from the
// innermost kind (array indices) outward.
type VarKind int

const (
	// KindSymbolic is a symbolic program constant (array extent N, a
	// block size B, an outer sequential loop index treated as a
	// parameter, ...).
	KindSymbolic VarKind = iota
	// KindProcessor identifies a processor, or in the linearized block
	// form, a block origin u = p*B.
	KindProcessor
	// KindLoop is a loop index variable.
	KindLoop
	// KindArray is an array subscript dimension variable.
	KindArray
)

func (k VarKind) String() string {
	switch k {
	case KindSymbolic:
		return "symbolic"
	case KindProcessor:
		return "processor"
	case KindLoop:
		return "loop"
	case KindArray:
		return "array"
	default:
		return fmt.Sprintf("VarKind(%d)", int(k))
	}
}

// Var is a named integer variable. Vars are value types and compare with ==.
type Var struct {
	Name string
	Kind VarKind
}

// Sym constructs a symbolic-constant variable.
func Sym(name string) Var { return Var{Name: name, Kind: KindSymbolic} }

// Proc constructs a processor (block-origin) variable.
func Proc(name string) Var { return Var{Name: name, Kind: KindProcessor} }

// Loop constructs a loop-index variable.
func Loop(name string) Var { return Var{Name: name, Kind: KindLoop} }

// Arr constructs an array-subscript variable.
func Arr(name string) Var { return Var{Name: name, Kind: KindArray} }

func (v Var) String() string { return v.Name }

// cmpVar orders variables by kind (paper scan order) and then by name.
func cmpVar(a, b Var) int {
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	return strings.Compare(a.Name, b.Name)
}

// Affine is a linear expression sum(coeff*var) + Const with int64
// coefficients. The zero value is the constant 0. Affine values are
// immutable from the caller's perspective: all operations return new values,
// and values may share their terms.
type Affine struct {
	terms []vterm // ascending in scan order, no zero coefficient
	Const int64
}

// vterm is one term of an Affine: coefficient k of variable v.
type vterm struct {
	v Var
	k int64
}

// NewAffine returns the affine constant c.
func NewAffine(c int64) Affine { return Affine{Const: c} }

// Term returns the affine expression coeff*v.
func Term(v Var, coeff int64) Affine {
	if coeff == 0 {
		return Affine{}
	}
	return Affine{terms: []vterm{{v, coeff}}}
}

// VarExpr returns the affine expression 1*v.
func VarExpr(v Var) Affine { return Term(v, 1) }

// Coeff returns the coefficient of v (0 if absent).
func (a Affine) Coeff(v Var) int64 {
	for _, t := range a.terms {
		if t.v == v {
			return t.k
		}
	}
	return 0
}

// IsConstant reports whether a has no variable terms.
func (a Affine) IsConstant() bool { return len(a.terms) == 0 }

// NumTerms returns the number of variables with nonzero coefficients.
func (a Affine) NumTerms() int { return len(a.terms) }

// Vars returns the variables of a in scan order.
func (a Affine) Vars() []Var {
	vs := make([]Var, len(a.terms))
	for i, t := range a.terms {
		vs[i] = t.v
	}
	return vs
}

// merge returns the terms of a + k*b without a's term at index skip (-1
// keeps them all): one pass over two ascending slices that drops the
// coefficients summing to zero. An operand is shared when the other adds
// nothing to it.
func merge(a []vterm, skip int, b []vterm, k int64) []vterm {
	switch {
	case skip < 0 && (k == 0 || len(b) == 0):
		return a
	case skip < 0 && k == 1 && len(a) == 0:
		return b
	}
	out := make([]vterm, 0, len(a)+len(b))
	for i, j := 0, 0; i < len(a) || j < len(b); {
		if i == skip {
			i++
			continue
		}
		d := -1 // a's variable comes first
		if i == len(a) {
			d = 1
		} else if j < len(b) {
			d = cmpVar(a[i].v, b[j].v)
		}
		t := vterm{}
		switch {
		case d < 0:
			t, i = a[i], i+1
		case d > 0:
			t, j = vterm{b[j].v, b[j].k * k}, j+1
		default:
			t, i, j = vterm{a[i].v, a[i].k + b[j].k*k}, i+1, j+1
		}
		if t.k != 0 {
			out = append(out, t)
		}
	}
	return out
}

// Add returns a + b.
func (a Affine) Add(b Affine) Affine {
	return Affine{terms: merge(a.terms, -1, b.terms, 1), Const: a.Const + b.Const}
}

// Sub returns a - b.
func (a Affine) Sub(b Affine) Affine {
	return Affine{terms: merge(a.terms, -1, b.terms, -1), Const: a.Const - b.Const}
}

// Neg returns -a.
func (a Affine) Neg() Affine { return a.Scale(-1) }

// Scale returns k*a.
func (a Affine) Scale(k int64) Affine {
	return Affine{terms: merge(nil, -1, a.terms, k), Const: a.Const * k}
}

// AddConst returns a + c.
func (a Affine) AddConst(c int64) Affine { return Affine{terms: a.terms, Const: a.Const + c} }

// Equal reports whether a and b denote the same affine expression.
func (a Affine) Equal(b Affine) bool {
	if a.Const != b.Const || len(a.terms) != len(b.terms) {
		return false
	}
	for i, t := range a.terms {
		if b.terms[i] != t {
			return false
		}
	}
	return true
}

// Substitute returns a with every occurrence of v replaced by repl.
func (a Affine) Substitute(v Var, repl Affine) Affine {
	for i, t := range a.terms {
		if t.v == v {
			return Affine{terms: merge(a.terms, i, repl.terms, t.k), Const: a.Const + t.k*repl.Const}
		}
	}
	return a
}

// Eval evaluates a under the given assignment. Missing variables evaluate
// to zero.
func (a Affine) Eval(env map[Var]int64) int64 {
	s := a.Const
	for _, t := range a.terms {
		s += t.k * env[t.v]
	}
	return s
}

// String renders a in a stable human-readable form, e.g. "2*i - j + N - 1".
func (a Affine) String() string {
	if a.IsConstant() {
		return fmt.Sprintf("%d", a.Const)
	}
	var sb strings.Builder
	for i, t := range a.terms {
		c, name := t.k, t.v.Name
		switch {
		case i == 0 && c == 1:
			sb.WriteString(name)
		case i == 0 && c == -1:
			sb.WriteString("-" + name)
		case i == 0:
			fmt.Fprintf(&sb, "%d*%s", c, name)
		case c == 1:
			sb.WriteString(" + " + name)
		case c == -1:
			sb.WriteString(" - " + name)
		case c > 0:
			fmt.Fprintf(&sb, " + %d*%s", c, name)
		default:
			fmt.Fprintf(&sb, " - %d*%s", -c, name)
		}
	}
	switch {
	case a.Const > 0:
		fmt.Fprintf(&sb, " + %d", a.Const)
	case a.Const < 0:
		fmt.Fprintf(&sb, " - %d", -a.Const)
	}
	return sb.String()
}

// union merges the variables of the ascending terms ts into the ascending
// vars, in place.
func union(vars []Var, ts []vterm) []Var {
	i := 0
	for _, t := range ts {
		d := 1
		for ; i < len(vars); i++ {
			if d = cmpVar(vars[i], t.v); d >= 0 {
				break
			}
		}
		if d != 0 {
			vars = slices.Insert(vars, i, t.v)
		}
		i++
	}
	return vars
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// floorDiv returns floor(a/b) for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
