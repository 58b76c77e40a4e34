package linear

// Holds reports whether the constraint is satisfied under env.
func (c Constraint) Holds(env map[Var]int64) bool {
	v := c.Expr.Eval(env)
	if c.Op == OpEQ {
		return v == 0
	}
	return v >= 0
}

// Holds reports whether every constraint is satisfied under env.
func (s *System) Holds(env map[Var]int64) bool {
	for _, c := range s.Cons {
		if !c.Holds(env) {
			return false
		}
	}
	return true
}
