package ir

// IntLit builds an integer literal.
func IntLit(v int64) *Num { return &Num{Val: float64(v), Int: v, IsInt: true} }

// FloatLit builds a float literal.
func FloatLit(v float64) *Num { return &Num{Val: v} }

// NewBin builds a binary expression.
func NewBin(op BinKind, l, r Expr) *Bin { return &Bin{Op: op, L: l, R: r} }

// NewIndex builds an array-element reference.
func NewIndex(name string, subs ...Expr) *Ref { return &Ref{Name: name, Subs: subs} }
