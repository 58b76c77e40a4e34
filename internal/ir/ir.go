// Package ir defines the intermediate representation consumed by the
// analyses and optimizers: structured loop nests over affine array
// subscripts, the program shape SUIF's parallelizer hands to the
// synchronization optimizer in the paper.
//
// Programs are written in a small Fortran-like DSL (see internal/parser) or
// built programmatically. Statements are loops, assignments and
// two-armed conditionals; expressions are arithmetic over scalars, array
// elements, loop indices and symbolic integer parameters.
package ir

import "fmt"

// Pos is a source position for diagnostics.
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Program is a whole compilation unit.
type Program struct {
	Name string
	// Params are symbolic integer parameters (array extents, iteration
	// counts). Their values are supplied at run time.
	Params []string
	// Arrays are the declared float64 arrays.
	Arrays []*ArrayDecl
	// Scalars are the declared float64 scalar variables.
	Scalars []string
	Body    []Stmt
	// DeclPos records the source position of each declared name (params,
	// arrays, scalars). Programs built programmatically may leave it nil;
	// diagnostics then fall back to the zero position.
	DeclPos map[string]Pos
}

// PosOf returns the declaration position of name (zero Pos if unknown).
func (p *Program) PosOf(name string) Pos { return p.DeclPos[name] }

// ArrayDecl declares a float64 array with affine extents. Element indices
// are 1-based (Fortran convention), so A(N) has valid subscripts 1..N.
type ArrayDecl struct {
	Name string
	Dims []Expr // extents; must be affine in Params
	P    Pos
}

// Rank returns the number of dimensions.
func (a *ArrayDecl) Rank() int { return len(a.Dims) }

// Array looks up an array declaration by name, or nil.
func (p *Program) Array(name string) *ArrayDecl {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// IsParam reports whether name is a symbolic parameter.
func (p *Program) IsParam(name string) bool {
	for _, s := range p.Params {
		if s == name {
			return true
		}
	}
	return false
}

// IsScalar reports whether name is a declared scalar.
func (p *Program) IsScalar(name string) bool {
	for _, s := range p.Scalars {
		if s == name {
			return true
		}
	}
	return false
}

// Stmt is a statement node.
type Stmt interface {
	Pos() Pos
	stmt()
}

// Loop is a DO loop with unit stride. Parallel marks it as a parallel loop
// (set by the parallelizer or by the `parallel do` form in the DSL).
type Loop struct {
	Index    string
	Lo, Hi   Expr // affine integer bounds
	Body     []Stmt
	Parallel bool
	// Private lists scalars privatized within this loop (each iteration
	// has its own copy); filled by the parallelizer.
	Private []string
	// Reductions lists scalar reductions recognized in this loop.
	Reductions []Reduction
	P          Pos
}

// Reduction describes a recognized scalar reduction s = s op expr.
type Reduction struct {
	Var string
	Op  BinKind // Add, Mul, Min or Max
}

// Assign is LHS = RHS where LHS is a scalar or array-element reference.
type Assign struct {
	LHS *Ref
	RHS Expr
	P   Pos
}

// If is a two-armed conditional.
type If struct {
	Cond Expr // comparison or logical expression
	Then []Stmt
	Else []Stmt
	P    Pos
}

func (l *Loop) Pos() Pos   { return l.P }
func (a *Assign) Pos() Pos { return a.P }
func (i *If) Pos() Pos     { return i.P }
func (*Loop) stmt()        {}
func (*Assign) stmt()      {}
func (*If) stmt()          {}

// Expr is an expression node.
type Expr interface {
	Pos() Pos
	expr()
}

// Num is a numeric literal. Integer literals (loop bounds, subscripts)
// carry IsInt.
type Num struct {
	Val   float64
	Int   int64
	IsInt bool
	P     Pos
}

// Ref is a use of a named entity: a scalar, parameter, loop index (empty
// Subs) or an array element (non-empty Subs).
type Ref struct {
	Name string
	Subs []Expr
	P    Pos
}

// IsArray reports whether the reference has subscripts.
func (r *Ref) IsArray() bool { return len(r.Subs) > 0 }

// BinKind is a binary operator.
type BinKind int

const (
	Add BinKind = iota
	Sub
	Mul
	Div
	// Comparison operators (yield 1.0 / 0.0; used in If conditions).
	EqOp
	NeOp
	LtOp
	LeOp
	GtOp
	GeOp
	// Logical operators over comparison results.
	AndOp
	OrOp
	// Min/Max appear via intrinsics but also as reduction kinds.
	MinOp
	MaxOp
)

var binNames = map[BinKind]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/",
	EqOp: "==", NeOp: "!=", LtOp: "<", LeOp: "<=", GtOp: ">", GeOp: ">=",
	AndOp: ".and.", OrOp: ".or.", MinOp: "min", MaxOp: "max",
}

func (k BinKind) String() string {
	if s, ok := binNames[k]; ok {
		return s
	}
	return fmt.Sprintf("BinKind(%d)", int(k))
}

// IsCompare reports whether k is a comparison operator.
func (k BinKind) IsCompare() bool { return k >= EqOp && k <= GeOp }

// Bin is a binary operation.
type Bin struct {
	Op   BinKind
	L, R Expr
	P    Pos
}

// Unary is unary negation (arithmetic) or .not. (logical).
type Unary struct {
	Op byte // '-' or '!'
	X  Expr
	P  Pos
}

// Call is an intrinsic function call: sqrt, abs, exp, log, sin, cos,
// min, max, mod.
type Call struct {
	Name string
	Args []Expr
	P    Pos
}

func (n *Num) Pos() Pos   { return n.P }
func (r *Ref) Pos() Pos   { return r.P }
func (b *Bin) Pos() Pos   { return b.P }
func (u *Unary) Pos() Pos { return u.P }
func (c *Call) Pos() Pos  { return c.P }
func (*Num) expr()        {}
func (*Ref) expr()        {}
func (*Bin) expr()        {}
func (*Unary) expr()      {}
func (*Call) expr()       {}

// NewRef builds a scalar/index reference.
func NewRef(name string) *Ref { return &Ref{Name: name} }
