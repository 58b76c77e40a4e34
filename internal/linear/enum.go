package linear

// Bounded integer enumeration: an exhaustive search for integer solutions
// of a System inside a finite box. It is deliberately independent of the
// Fourier-Motzkin machinery in fm.go — no shared elimination or
// normalization code — so the two can serve as mutual oracles: FM decides
// symbolically, enumeration decides by brute force on small instances, and
// a disagreement (FM says infeasible, enumeration finds a point) is a
// solver bug, not an analysis imprecision.
//
// The search assigns variables in scan order (symbolics, processors, loop
// indices, array indices), which matches how systems are built here: outer
// quantities (parameters, block sizes) bound inner ones (loop and array
// indices), so interval propagation from already-assigned variables prunes
// the walk to near-linear cost on typical loop-nest systems.
//
// It runs on the compiled row form (row.go): rows are bucketed by their
// highest-numbered variable, so the candidate interval of variable i is
// read off bucket i alone, and every value in that interval satisfies the
// bucket — a search node evaluates a few integer rows, allocates nothing
// and touches no map.

// EnumResult is the outcome of a bounded enumeration.
type EnumResult int

const (
	// EnumNoPoint: the box was searched exhaustively and holds no
	// integer solution.
	EnumNoPoint EnumResult = iota
	// EnumPoint: a satisfying integer assignment was found.
	EnumPoint
	// EnumBudget: the node budget ran out before the box was covered;
	// the result is unusable as evidence.
	EnumBudget
)

func (r EnumResult) String() string {
	switch r {
	case EnumNoPoint:
		return "no-point"
	case EnumPoint:
		return "point"
	case EnumBudget:
		return "budget-exhausted"
	default:
		return "EnumResult(?)"
	}
}

// EnumOptions shape the search box.
type EnumOptions struct {
	// Range gives an explicit inclusive search range for a variable.
	// Variables without an entry fall back to intervals derived from the
	// system's own constraints, then to [FallbackLo, FallbackHi].
	Range map[Var][2]int64
	// SymbolicRange is the inclusive range of every KindSymbolic variable
	// that has no Range entry (both zero selects none): the box clients
	// put around program parameters, without listing them per system.
	SymbolicRange [2]int64
	// FallbackLo/Hi bound variables the constraints leave open in one or
	// both directions (both zero selects [-8, 32]).
	FallbackLo, FallbackHi int64
	// Budget caps the number of search nodes (0 selects 200000).
	Budget int
}

const (
	defaultEnumBudget = 200000
	defaultFallbackLo = -8
	defaultFallbackHi = 32
)

// Enumerate searches the box for an integer point satisfying every
// constraint of s. On EnumPoint the returned assignment covers every
// variable of s. Arithmetic is overflow-checked: a system whose rows
// overflow int64 inside the box yields EnumBudget, never a wrapped point.
// s is not modified.
func (s *System) Enumerate(opts EnumOptions) (pt map[Var]int64, res EnumResult) {
	costEnums.Add(1)
	if bailed(func() { pt, res = s.enumerate(opts) }) {
		return nil, EnumBudget
	}
	return pt, res
}

func (s *System) enumerate(opts EnumOptions) (map[Var]int64, EnumResult) {
	vars, rows := compile(s.Cons)
	e := &enumerator{
		byLast: make([][]row, len(vars)),
		box:    make([]span, len(vars)),
		val:    make([]int64, len(vars)),
		budget: opts.Budget,
		sound:  true,
	}
	if e.budget <= 0 {
		e.budget = defaultEnumBudget
	}
	fallback := span{lo: opts.FallbackLo, hi: opts.FallbackHi}
	if fallback.lo == 0 && fallback.hi == 0 {
		fallback = span{lo: defaultFallbackLo, hi: defaultFallbackHi}
	}
	for i, v := range vars {
		r, has := opts.Range[v]
		if !has && v.Kind == KindSymbolic && opts.SymbolicRange != [2]int64{} {
			r, has = opts.SymbolicRange, true
		}
		if e.box[i] = fallback; has {
			e.box[i] = span{r[0], r[1], true, true}
		}
	}
	for _, r := range rows {
		if n := len(r.terms); n > 0 {
			last := r.terms[n-1].idx
			e.byLast[last] = append(e.byLast[last], r)
		} else if r.c < 0 || (r.eq && r.c != 0) {
			e.sound = false
		}
	}
	if len(vars) == 0 && !e.sound {
		return nil, EnumNoPoint // no node to charge: the empty assignment fails
	}
	switch e.search(0) {
	case searchFound:
		pt := make(map[Var]int64, len(vars))
		for i, v := range vars {
			pt[v] = e.val[i]
		}
		return pt, EnumPoint
	case searchBudget:
		return nil, EnumBudget
	default:
		return nil, EnumNoPoint
	}
}

type searchOutcome int

const (
	searchExhausted searchOutcome = iota
	searchFound
	searchBudget
)

// span is an inclusive candidate interval; a side that is not yet bounded
// holds the fallback and is replaced, not intersected, by the first bound.
type span struct {
	lo, hi       int64
	hasLo, hasHi bool
}

// bound intersects s with k*x + rest >= 0 (k != 0).
func (s *span) bound(k, rest int64) {
	if k > 0 {
		// x >= ceil(-rest/k)
		if b := mulChecked(floorDiv(rest, k), -1); !s.hasLo || b > s.lo {
			s.lo, s.hasLo = b, true
		}
	} else if b := floorDiv(rest, mulChecked(k, -1)); !s.hasHi || b < s.hi {
		// x <= floor(rest/-k)
		s.hi, s.hasHi = b, true
	}
}

type enumerator struct {
	// byLast[i] holds, in constraint order, the rows whose highest-numbered
	// variable is i: exactly those that become decidable when i is assigned.
	byLast [][]row
	box    []span  // explicit range or fallback per variable
	val    []int64 // val[:i] is the current partial assignment
	budget int
	// sound is false when a constant row is violated. No point exists then,
	// but every node is still visited and charged to the budget.
	sound bool
}

// search assigns variables i.. depth-first. The candidate interval for
// variable i intersects its box with every row of bucket i, evaluated under
// val[:i]; each value in it satisfies the bucket, and buckets below i were
// settled on the way down, so reaching the end of val is a solution.
func (e *enumerator) search(i int) searchOutcome {
	if i == len(e.val) {
		return searchFound
	}
	s := e.box[i]
	for _, r := range e.byLast[i] {
		last := len(r.terms) - 1
		rest := r.c
		for _, t := range r.terms[:last] {
			rest = addChecked(rest, mulChecked(t.k, e.val[t.idx]))
		}
		k := r.terms[last].k
		s.bound(k, rest)
		if r.eq {
			s.bound(mulChecked(k, -1), mulChecked(rest, -1))
		}
	}
	for x := s.lo; x <= s.hi; x++ {
		e.budget--
		if e.budget < 0 {
			return searchBudget
		}
		if !e.sound {
			continue
		}
		e.val[i] = x
		if out := e.search(i + 1); out != searchExhausted {
			return out
		}
	}
	return searchExhausted
}
