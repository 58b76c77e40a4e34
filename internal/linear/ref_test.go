package linear

import "slices"

// Reference implementations. Nothing here is reachable from non-test code.

// enumerateRef is the map-based enumerator this package shipped before the
// compiled row form, kept verbatim as the differential reference for
// Enumerate: it re-derives everything from the Affine maps at every node.
func enumerateRef(s *System, opts EnumOptions) (map[Var]int64, EnumResult) {
	if opts.Budget <= 0 {
		opts.Budget = defaultEnumBudget
	}
	if opts.FallbackLo == 0 && opts.FallbackHi == 0 {
		opts.FallbackLo, opts.FallbackHi = defaultFallbackLo, defaultFallbackHi
	}
	e := &refEnumerator{sys: s, opts: opts, vars: s.Vars(), env: map[Var]int64{}, budget: opts.Budget}
	if len(e.vars) == 0 {
		if s.Holds(e.env) {
			return map[Var]int64{}, EnumPoint
		}
		return nil, EnumNoPoint
	}
	switch e.search(0) {
	case searchFound:
		return e.env, EnumPoint
	case searchBudget:
		return nil, EnumBudget
	default:
		return nil, EnumNoPoint
	}
}

type refEnumerator struct {
	sys    *System
	opts   EnumOptions
	vars   []Var
	env    map[Var]int64
	budget int
}

// search assigns vars[i..] depth-first. The candidate interval for vars[i]
// intersects the explicit range (if any) with every constraint in which
// vars[i] is the only yet-unassigned variable.
func (e *refEnumerator) search(i int) searchOutcome {
	if i == len(e.vars) {
		if e.fullySatisfied() {
			return searchFound
		}
		return searchExhausted
	}
	v := e.vars[i]
	lo, hi, ok := e.interval(v, i)
	if !ok {
		return searchExhausted
	}
	for x := lo; x <= hi; x++ {
		e.budget--
		if e.budget < 0 {
			return searchBudget
		}
		e.env[v] = x
		if !e.prefixConsistent(i) {
			continue
		}
		if out := e.search(i + 1); out != searchExhausted {
			return out
		}
	}
	delete(e.env, v)
	return searchExhausted
}

// interval derives the inclusive candidate range for v given that
// vars[0..i-1] are assigned. ok is false when the range is provably empty.
func (e *refEnumerator) interval(v Var, i int) (lo, hi int64, ok bool) {
	lo, hi = e.opts.FallbackLo, e.opts.FallbackHi
	boundedLo, boundedHi := false, false
	if r, has := e.opts.Range[v]; has {
		lo, hi = r[0], r[1]
		boundedLo, boundedHi = true, true
	}
	assigned := func(u Var) bool {
		_, done := e.env[u]
		return done
	}
	for _, c := range e.sys.Cons {
		k := c.Expr.Coeff(v)
		if k == 0 {
			continue
		}
		// Usable only when every other variable is already assigned.
		rest := c.Expr.Const
		usable := true
		for _, u := range c.Expr.Vars() {
			if u == v {
				continue
			}
			if !assigned(u) {
				usable = false
				break
			}
			rest += c.Expr.Coeff(u) * e.env[u]
		}
		if !usable {
			continue
		}
		// Constraint: k*v + rest >= 0 (and <= 0 too for equalities).
		apply := func(k, rest int64) {
			if k > 0 {
				// v >= ceil(-rest/k)
				b := -floorDiv(rest, k)
				if !boundedLo || b > lo {
					lo, boundedLo = b, true
				}
			} else {
				// v <= floor(rest/-k)
				b := floorDiv(rest, -k)
				if !boundedHi || b < hi {
					hi, boundedHi = b, true
				}
			}
		}
		apply(k, rest)
		if c.Op == OpEQ {
			apply(-k, -rest)
		}
	}
	if lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}

// prefixConsistent checks every constraint whose variables are all assigned
// after vars[i] received its value.
func (e *refEnumerator) prefixConsistent(i int) bool {
	for _, c := range e.sys.Cons {
		all := true
		for _, u := range c.Expr.Vars() {
			if _, done := e.env[u]; !done {
				all = false
				break
			}
		}
		if all && !c.Holds(e.env) {
			return false
		}
	}
	return true
}

func (e *refEnumerator) fullySatisfied() bool { return e.sys.Holds(e.env) }

// The reference keeps its own affine arithmetic: it reads an Affine's terms
// into a map, works on the map, and sorts the result back into the canonical
// form itself, so none of affine.go's merges is on its path.

func termsOf(a Affine) map[Var]int64 {
	m := make(map[Var]int64, len(a.terms))
	for _, t := range a.terms {
		m[t.v] = t.k
	}
	return m
}

func affineOf(m map[Var]int64, c int64) Affine {
	a := Affine{Const: c}
	for v, k := range m {
		if k != 0 {
			a.terms = append(a.terms, vterm{v, k})
		}
	}
	slices.SortFunc(a.terms, func(x, y vterm) int { return cmpVar(x.v, y.v) })
	return a
}

// negRef returns -a in wrapping arithmetic.
func negRef(a Affine) Affine {
	m := termsOf(a)
	for v, c := range m {
		m[v] = -c
	}
	return affineOf(m, -a.Const)
}

// substituteRef returns a with v replaced by repl, in wrapping arithmetic.
func substituteRef(a Affine, v Var, repl Affine) Affine {
	m := termsOf(a)
	c := m[v]
	if c == 0 {
		return a
	}
	delete(m, v)
	for u, k := range termsOf(repl) {
		m[u] += c * k
	}
	return affineOf(m, a.Const+c*repl.Const)
}

// coeffGCDRef returns the gcd of all coefficients (not the constant);
// 0 when there are no variable terms.
func coeffGCDRef(a Affine) int64 {
	var g int64
	for _, c := range termsOf(a) {
		g = gcd64(g, c)
	}
	return g
}

// scaleCheckedRef returns k*a with overflow checking.
func scaleCheckedRef(a Affine, k int64) Affine {
	m := termsOf(a)
	for v, c := range m {
		m[v] = mulChecked(c, k)
	}
	return affineOf(m, mulChecked(a.Const, k))
}

func addAffCheckedRef(a, b Affine) Affine {
	m := termsOf(a)
	for v, c := range termsOf(b) {
		m[v] = addChecked(m[v], c)
	}
	return affineOf(m, addChecked(a.Const, b.Const))
}

// solveBodyRef is the map-based Fourier-Motzkin loop this package shipped
// before the compiled row form, kept verbatim as the differential reference
// for solveBody.
func solveBodyRef(s *System, subst bool, info *SolveInfo) Result {
	work, ok := normalizeAllRef(s.Cons)
	if !ok {
		return Infeasible
	}

	if subst {
		work, ok = substituteEqualitiesRef(work)
		if !ok {
			return Infeasible
		}
	}

	// Split remaining equalities into inequality pairs.
	var ineqs []Constraint
	for _, c := range work {
		if c.Op == OpEQ {
			ineqs = append(ineqs,
				Constraint{Expr: c.Expr, Op: OpGE},
				Constraint{Expr: negRef(c.Expr), Op: OpGE})
		} else {
			ineqs = append(ineqs, c)
		}
	}

	steps := 0
	for {
		ineqs, ok = normalizeAllRef(ineqs)
		if !ok {
			return Infeasible
		}
		ineqs = dedupRef(ineqs)
		v, found := pickVarRef(ineqs)
		if !found {
			// Only constant constraints remain; normalizeAllRef
			// verified them all.
			info.IneqsRetained = int64(len(ineqs))
			return Feasible
		}
		steps++
		if steps > maxElimSteps || len(ineqs) > maxConstraints {
			info.IneqsRetained = int64(len(ineqs))
			return Unknown
		}
		info.VarsEliminated++
		ineqs, ok = eliminateRef(ineqs, v, info)
		if !ok {
			return Infeasible
		}
	}
}

// normalizeAllRef GCD-normalizes every constraint with integer tightening,
// drops trivially true constraints, and reports false if any constraint is
// trivially false.
func normalizeAllRef(cons []Constraint) ([]Constraint, bool) {
	out := cons[:0:0]
	for _, c := range cons {
		g := coeffGCDRef(c.Expr)
		if g == 0 {
			// Constant constraint.
			if c.Op == OpEQ && c.Expr.Const != 0 {
				return nil, false
			}
			if c.Op == OpGE && c.Expr.Const < 0 {
				return nil, false
			}
			continue
		}
		if g > 1 {
			m := termsOf(c.Expr)
			for v, k := range m {
				m[v] = k / g
			}
			if c.Op == OpEQ {
				if c.Expr.Const%g != 0 {
					// No integer solution for this equality.
					return nil, false
				}
				c.Expr = affineOf(m, c.Expr.Const/g)
			} else {
				// Integer tightening: sum >= -C becomes
				// sum/g >= ceil(-C/g), i.e. const floor-divides.
				c.Expr = affineOf(m, floorDiv(c.Expr.Const, g))
			}
		}
		out = append(out, c)
	}
	return out, true
}

// substituteEqualitiesRef repeatedly finds an equality with a +/-1 coefficient
// and substitutes it through the system (Gaussian elimination step). This
// keeps coefficients small and dramatically reduces FM blowup.
//
// The choice of equality (first by index) and variable (cmpVar order) is
// deterministic: solve-cost accounting flows into golden-tested remark
// output, so map-iteration order must not leak into the pivot choice.
func substituteEqualitiesRef(cons []Constraint) ([]Constraint, bool) {
	for {
		idx, v := -1, Var{}
		for i, c := range cons {
			if c.Op != OpEQ {
				continue
			}
			for _, tv := range c.Expr.Vars() {
				if tc := c.Expr.Coeff(tv); tc == 1 || tc == -1 {
					idx, v = i, tv
					break
				}
			}
			if idx >= 0 {
				break
			}
		}
		if idx < 0 {
			return cons, true
		}
		eq := cons[idx].Expr
		c := eq.Coeff(v)
		// c*v + rest == 0  =>  v = -rest/c ; with c = +/-1:
		m := termsOf(eq)
		delete(m, v)
		repl := affineOf(m, eq.Const) // -c*rest with c*c = 1
		if c == 1 {
			repl = negRef(repl)
		}
		next := make([]Constraint, 0, len(cons)-1)
		for i, cc := range cons {
			if i == idx {
				continue
			}
			cc.Expr = substituteRef(cc.Expr, v, repl)
			next = append(next, cc)
		}
		var ok bool
		next, ok = normalizeAllRef(next)
		if !ok {
			return nil, false
		}
		cons = next
	}
}

// dedupRef removes duplicate constraints and keeps only the tightest constant
// for constraints sharing the same linear part.
func dedupRef(cons []Constraint) []Constraint {
	type entry struct {
		idx int
	}
	best := make(map[string]entry, len(cons))
	keyBuf := make([]byte, 0, 64)
	out := cons[:0:0]
	for _, c := range cons {
		keyBuf = keyBuf[:0]
		for _, v := range c.Expr.Vars() {
			keyBuf = append(keyBuf, v.Name...)
			keyBuf = append(keyBuf, '#')
			keyBuf = appendIntRef(keyBuf, c.Expr.Coeff(v))
			keyBuf = append(keyBuf, '|')
		}
		k := string(keyBuf)
		if e, dup := best[k]; dup {
			// expr + C >= 0 means lin >= -C; smaller C is tighter.
			if c.Expr.Const < out[e.idx].Expr.Const {
				out[e.idx] = c
			}
			continue
		}
		best[k] = entry{idx: len(out)}
		out = append(out, c)
	}
	return out
}

func appendIntRef(b []byte, n int64) []byte {
	if n < 0 {
		b = append(b, '-')
		n = -n
	}
	if n == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for n > 0 {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
	}
	return append(b, tmp[i:]...)
}

// pickVarRef chooses the next variable to eliminateRef: innermost kind first
// (array indices, then loop indices, then processors, then symbolics —
// the reverse of the paper's scan order), and within a kind the variable
// with the cheapest lower*upper pairing cost.
func pickVarRef(cons []Constraint) (Var, bool) {
	type stat struct{ lo, hi, free int }
	stats := map[Var]*stat{}
	for _, c := range cons {
		for v, k := range termsOf(c.Expr) {
			st := stats[v]
			if st == nil {
				st = &stat{}
				stats[v] = st
			}
			if k > 0 {
				st.lo++
			} else {
				st.hi++
			}
		}
	}
	if len(stats) == 0 {
		return Var{}, false
	}
	vars := make([]Var, 0, len(stats))
	for v := range stats {
		vars = append(vars, v)
	}
	slices.SortFunc(vars, cmpVar)
	bestIdx := -1
	bestCost := int(^uint(0) >> 1)
	bestKind := VarKind(-1)
	for i, v := range vars {
		st := stats[v]
		cost := st.lo * st.hi
		// Prefer innermost kinds (higher VarKind) strictly, then
		// cheapest cost within the kind.
		if bestIdx < 0 || v.Kind > bestKind || (v.Kind == bestKind && cost < bestCost) {
			bestIdx, bestCost, bestKind = i, cost, v.Kind
		}
	}
	return vars[bestIdx], true
}

// eliminateRef removes v from the system by pairing every lower bound with
// every upper bound (Fourier-Motzkin step), tallying generated
// inequalities into info. Returns false on a detected contradiction.
func eliminateRef(cons []Constraint, v Var, info *SolveInfo) ([]Constraint, bool) {
	var lower, upper, rest []Constraint
	for _, c := range cons {
		k := c.Expr.Coeff(v)
		switch {
		case k > 0:
			lower = append(lower, c)
		case k < 0:
			upper = append(upper, c)
		default:
			rest = append(rest, c)
		}
	}
	if len(lower)*len(upper) > maxConstraints {
		panic(canceled{})
	}
	out := rest
	for _, l := range lower {
		a := l.Expr.Coeff(v) // a > 0
		for _, u := range upper {
			b := -u.Expr.Coeff(v) // b > 0
			// l: a*v + alpha >= 0, u: -b*v + beta >= 0
			// => b*alpha + a*beta >= 0
			nl := scaleCheckedRef(l.Expr, b)
			nu := scaleCheckedRef(u.Expr, a)
			// The v terms cancel, b*a + a*(-b) = 0, and affineOf drops them.
			ne := addAffCheckedRef(nl, nu)
			if ne.IsConstant() {
				if ne.Const < 0 {
					return nil, false
				}
				continue
			}
			info.IneqsGenerated++
			out = append(out, Constraint{Expr: ne, Op: OpGE})
		}
	}
	return out, true
}
