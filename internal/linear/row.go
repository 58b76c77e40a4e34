package linear

// The compiled row form. Solve, Project and Enumerate each number the
// variables of their system once, in scan order, and lower every constraint
// to an integer row; the Affine terms are not touched again until a result
// is handed back. The two decision procedures share this file — the
// numbering, the row type and the checked arithmetic — and nothing else:
// no elimination, normalization or evaluation code, so Fourier-Motzkin
// (fm.go) and bounded enumeration (enum.go) remain mutual oracles.

// term is one nonzero coefficient; idx is the variable's scan-order number.
type term struct {
	idx int
	k   int64
}

// row is terms·x + c >= 0, or == 0 when eq. terms ascend by idx, so walking
// them visits variables in the same order Affine.Vars would.
type row struct {
	terms []term
	c     int64
	eq    bool
}

// compile numbers the variables of cons in scan order and lowers each
// constraint to a row over those numbers. Rows own their terms: cons is
// never aliased, so callers may rewrite rows in place.
func compile(cons []Constraint) ([]Var, []row) {
	total, vars := 0, make([]Var, 0, 16)
	for _, c := range cons {
		total += len(c.Expr.terms)
		vars = union(vars, c.Expr.terms)
	}
	slab := make([]term, 0, total)
	rows := make([]row, len(cons))
	for i, c := range cons {
		// Both are in scan order: one walk numbers the row's terms.
		start, n := len(slab), 0
		for _, t := range c.Expr.terms {
			for vars[n] != t.v {
				n++
			}
			slab = append(slab, term{n, t.k})
		}
		rows[i] = row{terms: slab[start:len(slab):len(slab)], c: c.Expr.Const, eq: c.Op == OpEQ}
	}
	return vars, rows
}

// constraint raises r back to the public form.
func (r row) constraint(vars []Var) Constraint {
	c := Constraint{Expr: Affine{Const: r.c}, Op: OpGE}
	if r.eq {
		c.Op = OpEQ
	}
	c.Expr.terms = make([]vterm, len(r.terms))
	for i, t := range r.terms {
		c.Expr.terms[i] = vterm{vars[t.idx], t.k}
	}
	return c
}

// coeff returns the coefficient of variable idx (0 if absent).
func (r row) coeff(idx int) int64 {
	for _, t := range r.terms {
		if t.idx >= idx {
			if t.idx == idx {
				return t.k
			}
			break
		}
	}
	return 0
}

type canceled struct{} // panic sentinel for overflow/size bailout

// bailed runs f and reports whether it gave up by panicking with canceled.
func bailed(f func()) (yes bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(canceled); !ok {
				panic(r)
			}
			yes = true
		}
	}()
	f()
	return false
}

// mulChecked multiplies with overflow detection; on overflow it panics with
// the canceled sentinel, unwinding to the entry point's bailed call (Solve
// reports Unknown, Project not-ok, Enumerate EnumBudget).
func mulChecked(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	r := a * b
	if r/b != a || (b == -1 && r == a) {
		panic(canceled{})
	}
	return r
}

func addChecked(a, b int64) int64 {
	r := a + b
	if (a > 0 && b > 0 && r < 0) || (a < 0 && b < 0 && r >= 0) {
		panic(canceled{})
	}
	return r
}
