package linear

// Solver limits. Fourier-Motzkin elimination can blow up quadratically per
// step; the guards below make the solver give up (Result Unknown, treated
// as Feasible by callers) rather than run away. The synchronization
// optimizer then conservatively keeps the barrier.
const (
	maxConstraints = 6000
	maxElimSteps   = 256
)

// SolveInfo is one solve's accounting: the verdict plus how much
// elimination work it took. It feeds the optimization remarks' per-pair
// Fourier-Motzkin evidence.
type SolveInfo struct {
	Result Result
	// VarsEliminated counts FM elimination steps (one per variable
	// removed).
	VarsEliminated int64
	// IneqsGenerated counts inequalities produced by lower×upper
	// pairings; IneqsRetained counts constraints still standing when the
	// solve terminated.
	IneqsGenerated int64
	IneqsRetained  int64
}

// Solve decides feasibility of the system over the integers using
// Fourier-Motzkin elimination with Gaussian pre-substitution of unit-
// coefficient equalities and integer (GCD) tightening of inequalities.
//
// Infeasible is exact: the system has no integer solution.
// Feasible means a rational solution exists (an integer one may not);
// Unknown means the solver hit a resource guard. Both are treated as
// "communication may occur" by clients, which is the sound direction.
//
// Solve, SolveDetailed, Project and Enumerate work on a compiled copy of
// the constraints and never modify s: callers need not Copy first.
func (s *System) Solve() (res Result) {
	var info SolveInfo
	s.solve(true, &info)
	return info.Result
}

// SolveDetailed is Solve with per-solve cost accounting, for the
// optimization-remarks layer.
func (s *System) SolveDetailed() SolveInfo {
	var info SolveInfo
	s.solve(true, &info)
	return info
}

// SolveNoSubst is Solve with Gaussian equality pre-substitution disabled;
// it exists for the ablation benchmark (DESIGN.md A1).
func (s *System) SolveNoSubst() (res Result) {
	var info SolveInfo
	s.solve(false, &info)
	return info.Result
}

func (s *System) solve(subst bool, info *SolveInfo) {
	if bailed(func() { info.Result = s.solveBody(subst, info) }) {
		info.Result = Unknown
	}
	costSystems.Add(1)
	costVarsElim.Add(info.VarsEliminated)
	costIneqsGen.Add(info.IneqsGenerated)
	if info.Result == Unknown {
		costBailouts.Add(1)
	}
}

func (s *System) solveBody(subst bool, info *SolveInfo) Result {
	vars, rows := compile(s.Cons)
	rows, ok := normalizeRows(rows)
	if ok && subst {
		rows, ok = substituteEqualities(rows)
	}
	if !ok {
		return Infeasible
	}
	f := fm{vars: vars, lo: make([]int, len(vars)), hi: make([]int, len(vars)), info: info}
	rows, res := f.run(rows, f.pickVar)
	info.IneqsRetained = int64(len(rows))
	return res
}

// fm is one elimination run over compiled rows.
type fm struct {
	vars   []Var
	lo, hi []int // pickVar scratch: lower/upper bound counts per variable
	info   *SolveInfo
}

// run splits equalities into inequality pairs and eliminates the variables
// pick selects until it returns -1 (Feasible, with the surviving rows), a
// contradiction appears (Infeasible) or a resource guard trips (Unknown).
func (f *fm) run(rows []row, pick func([]row) int) ([]row, Result) {
	ineqs := make([]row, 0, len(rows))
	for _, r := range rows {
		wasEq := r.eq
		r.eq = false
		ineqs = append(ineqs, r)
		if wasEq {
			ineqs = append(ineqs, combine(r, -1, row{}, 0))
		}
	}
	for steps := 1; ; steps++ {
		var ok bool
		if ineqs, ok = normalizeRows(ineqs); !ok {
			return nil, Infeasible
		}
		ineqs = dedup(ineqs)
		v := pick(ineqs)
		if v < 0 {
			// Only constant rows remained and normalizeRows verified
			// them all.
			return ineqs, Feasible
		}
		if steps > maxElimSteps || len(ineqs) > maxConstraints {
			return ineqs, Unknown
		}
		f.info.VarsEliminated++
		if ineqs, ok = f.eliminate(ineqs, v); !ok {
			return nil, Infeasible
		}
	}
}

// normalizeRows GCD-normalizes every row in place with integer tightening,
// drops trivially true rows, and reports false if any row is trivially
// false.
func normalizeRows(rows []row) ([]row, bool) {
	out := rows[:0]
	for _, r := range rows {
		var g int64
		for _, t := range r.terms {
			if g = gcd64(g, t.k); g == 1 {
				break
			}
		}
		if g == 0 {
			// Constant row.
			if r.c < 0 || (r.eq && r.c != 0) {
				return nil, false
			}
			continue
		}
		if g > 1 {
			if r.eq && r.c%g != 0 {
				// No integer solution for this equality.
				return nil, false
			}
			for i := range r.terms {
				r.terms[i].k /= g
			}
			// Integer tightening: sum >= -C becomes sum/g >= ceil(-C/g),
			// i.e. the constant floor-divides (exactly, for an equality).
			r.c = floorDiv(r.c, g)
		}
		out = append(out, r)
	}
	return out, true
}

// combine returns ka*a + kb*b with overflow checking and zero terms dropped.
func combine(a row, ka int64, b row, kb int64) row {
	out := row{terms: make([]term, 0, len(a.terms)+len(b.terms)), eq: a.eq,
		c: addChecked(mulChecked(a.c, ka), mulChecked(b.c, kb))}
	i, j := 0, 0
	for i < len(a.terms) || j < len(b.terms) {
		var t term
		switch {
		case j == len(b.terms) || (i < len(a.terms) && a.terms[i].idx < b.terms[j].idx):
			t = term{a.terms[i].idx, mulChecked(a.terms[i].k, ka)}
			i++
		case i == len(a.terms) || b.terms[j].idx < a.terms[i].idx:
			t = term{b.terms[j].idx, mulChecked(b.terms[j].k, kb)}
			j++
		default:
			t = term{a.terms[i].idx, addChecked(mulChecked(a.terms[i].k, ka), mulChecked(b.terms[j].k, kb))}
			i, j = i+1, j+1
		}
		if t.k != 0 {
			out.terms = append(out.terms, t)
		}
	}
	return out
}

// substituteEqualities repeatedly finds an equality with a +/-1 coefficient
// and substitutes it through the system (Gaussian elimination step). This
// keeps coefficients small and dramatically reduces FM blowup.
//
// The choice of equality (first by index) and variable (scan order) is
// deterministic: solve-cost accounting flows into golden-tested remark
// output.
func substituteEqualities(rows []row) ([]row, bool) {
	for {
		idx, v, k := -1, 0, int64(0)
	find:
		for i, r := range rows {
			if !r.eq {
				continue
			}
			for _, t := range r.terms {
				if t.k == 1 || t.k == -1 {
					idx, v, k = i, t.idx, t.k
					break find
				}
			}
		}
		if idx < 0 {
			return rows, true
		}
		// k*v + rest == 0 with k = +/-1, so c*v + S becomes S - c*k*rest:
		// adding -c*k times the equality cancels v exactly.
		eq := rows[idx]
		next := make([]row, 0, len(rows)-1)
		for i, r := range rows {
			if i == idx {
				continue
			}
			if c := r.coeff(v); c != 0 {
				r = combine(r, 1, eq, mulChecked(-c, k))
			}
			next = append(next, r)
		}
		var ok bool
		if rows, ok = normalizeRows(next); !ok {
			return nil, false
		}
	}
}

// dedup removes duplicate rows and keeps only the tightest constant for
// rows sharing the same linear part, at the position of the first.
func dedup(rows []row) []row {
	seen := make(map[uint64]int, len(rows)) // hash of linear part -> index in out
	out := rows[:0]
next:
	for _, r := range rows {
		h := uint64(14695981039346656037)
		for _, t := range r.terms {
			h = (h ^ uint64(t.idx)) * 1099511628211
			h = (h ^ uint64(t.k)) * 1099511628211
		}
		for ; ; h++ { // linear probing over hash collisions
			j, hit := seen[h]
			if !hit {
				seen[h] = len(out)
				out = append(out, r)
				continue next
			}
			if sameTerms(out[j].terms, r.terms) {
				// lin + C >= 0 means lin >= -C; smaller C is tighter.
				if r.c < out[j].c {
					out[j] = r
				}
				continue next
			}
		}
	}
	return out
}

func sameTerms(a, b []term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pickVar chooses the next variable to eliminate: innermost kind first
// (array indices, then loop indices, then processors, then symbolics —
// the reverse of the paper's scan order), and within a kind the variable
// with the cheapest lower*upper pairing cost, the first in scan order on a
// tie. It returns -1 when no row mentions a variable.
func (f *fm) pickVar(rows []row) int {
	for i := range f.lo {
		f.lo[i], f.hi[i] = 0, 0
	}
	for _, r := range rows {
		for _, t := range r.terms {
			if t.k > 0 {
				f.lo[t.idx]++
			} else {
				f.hi[t.idx]++
			}
		}
	}
	best, bestCost := -1, 0
	for i, v := range f.vars {
		if f.lo[i]+f.hi[i] == 0 {
			continue
		}
		// Prefer innermost kinds (higher VarKind) strictly, then
		// cheapest cost within the kind.
		cost := f.lo[i] * f.hi[i]
		if best < 0 || v.Kind > f.vars[best].Kind || (v.Kind == f.vars[best].Kind && cost < bestCost) {
			best, bestCost = i, cost
		}
	}
	return best
}

// eliminate removes variable v from the system by pairing every lower bound
// with every upper bound (Fourier-Motzkin step), tallying generated
// inequalities into f.info. Returns false on a detected contradiction.
func (f *fm) eliminate(rows []row, v int) ([]row, bool) {
	var lower, upper []row
	out := make([]row, 0, len(rows))
	for _, r := range rows {
		switch k := r.coeff(v); {
		case k > 0:
			lower = append(lower, r)
		case k < 0:
			upper = append(upper, r)
		default:
			out = append(out, r)
		}
	}
	if len(lower)*len(upper) > maxConstraints {
		panic(canceled{})
	}
	for _, l := range lower {
		a := l.coeff(v) // a > 0
		for _, u := range upper {
			b := -u.coeff(v) // b > 0
			// l: a*v + alpha >= 0, u: -b*v + beta >= 0
			// => b*alpha + a*beta >= 0; the v terms cancel.
			ne := combine(l, b, u, a)
			if len(ne.terms) == 0 {
				if ne.c < 0 {
					return nil, false
				}
				continue
			}
			f.info.IneqsGenerated++
			out = append(out, ne)
		}
	}
	return out, true
}

// Implies reports whether the system entails c for all integer points:
// s ∧ ¬c is infeasible. For equalities it checks both strict sides.
// A true result is exact; false may be conservative (Unknown counts as
// "not implied").
func (s *System) Implies(c Constraint) bool {
	if c.Op == OpEQ {
		ge := Constraint{Expr: c.Expr, Op: OpGE}
		le := Constraint{Expr: c.Expr.Neg(), Op: OpGE}
		return s.Implies(ge) && s.Implies(le)
	}
	t := s.Copy()
	t.Add(c.Negate())
	return t.Solve() == Infeasible
}

// Project eliminates every variable for which drop returns true and returns
// the projected system over the remaining variables. ok is false when the
// solver hit a resource guard (result unusable) or the system is infeasible
// (empty projection). s is not modified.
func (s *System) Project(drop func(Var) bool) (proj *System, ok bool) {
	if bailed(func() { proj, ok = s.project(drop) }) {
		return nil, false
	}
	return proj, ok
}

func (s *System) project(drop func(Var) bool) (*System, bool) {
	vars, rows := compile(s.Cons)
	rows, good := normalizeRows(rows)
	if !good {
		return nil, false
	}
	f := fm{vars: vars, info: new(SolveInfo)}
	rows, res := f.run(rows, func(rows []row) int {
		target := -1
		for _, r := range rows {
			for _, t := range r.terms {
				if (target < 0 || t.idx < target) && drop(vars[t.idx]) {
					target = t.idx
				}
			}
		}
		return target
	})
	if res != Feasible {
		return nil, false
	}
	proj := &System{Cons: make([]Constraint, len(rows))}
	for i, r := range rows {
		proj.Cons[i] = r.constraint(vars)
	}
	return proj, true
}
