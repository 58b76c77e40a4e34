package comm

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/ir"
	"repro/internal/irreg"
	"repro/internal/linear"
	"repro/internal/remarks"
)

// bsVar is the shared symbolic block size. A single symbol suffices
// because two placements are only compared when their spaces have equal
// extents (same key), in which case they share one block size.
var bsVar = linear.Sym("$B")

// depKind names the dependence kind of the ordered pair (x before y).
func depKind(x, y access) string {
	switch {
	case x.write && y.write:
		return "output"
	case x.write:
		return "flow"
	default:
		return "anti"
	}
}

// depAccess renders one side of a dependence for the remark layer.
func depAccess(a access) remarks.Access {
	kind := "read"
	if a.write {
		kind = "write"
	}
	what := a.name
	if a.ref != nil {
		what = ir.ExprString(a.ref)
	}
	var pos ir.Pos
	if a.ref != nil {
		pos = a.ref.Pos()
	} else if a.stmt != nil {
		pos = a.stmt.Pos()
	}
	return remarks.Access{Kind: kind, Ref: what, Mode: a.mode.String(),
		Line: pos.Line, Col: pos.Col}
}

// newDep starts a dependence record for the pair.
func newDep(x, y access) remarks.Dependence {
	return remarks.Dependence{
		Var:  x.name,
		Kind: depKind(x, y),
		Src:  depAccess(x),
		Dst:  depAccess(y),
	}
}

// classifyPair decides the synchronization class induced by one ordered
// access pair (x executes in group X, then y in group Y).
func (a *Analyzer) classifyPair(x, y access, outer []*ir.Loop, carrier *ir.Loop) Verdict {
	plX, parX := a.placementOf(x)
	plY, parY := a.placementOf(y)

	// Both sides master-executed: same processor, no communication.
	if !parX && !parY && !x.replicatedSide() && !y.replicatedSide() {
		dep := newDep(x, y)
		dep.Class = remarks.PrimNone
		dep.Note = "both sides master-executed"
		dep.FM = remarks.FMVerdict{Feasible: false, Exact: true}
		return Verdict{Class: ClassNone, Exact: true,
			Deps: []remarks.Dependence{dep},
			FM:   dep.FM}
	}

	if a.Plan.Kind == decomp.Cyclic {
		return a.classifyCyclic(x, y, outer, carrier, parX)
	}

	// Space comparability: two parallel placements must share an extent
	// expression (and, for carried tests, must not depend on the
	// carrier index — the block size would differ between iterations).
	if parX && parY {
		if plX.Space.Key != plY.Space.Key {
			return a.bailVerdict(x, y, outer, carrier, "incomparable spaces "+plX.Space.Key+" vs "+plY.Space.Key)
		}
	}
	if carrier != nil {
		for _, pl := range []*decomp.Placement{plX, plY} {
			if pl == nil {
				continue
			}
			for _, oi := range pl.OuterIndices {
				if oi == carrier.Index {
					return barrierVerdict(x, y, "placement varies with carrier "+carrier.Index)
				}
			}
		}
	}

	b := newBuilder(a, outer, carrier)
	u1, ok1 := b.side(x, "$x", b.kx)
	u2, ok2 := b.side(y, "$y", b.ky)
	if !ok1 || !ok2 {
		return a.bailVerdict(x, y, outer, carrier, "non-affine access")
	}
	if !b.equateSubscripts(x, y, "$x", "$y") {
		return a.bailVerdict(x, y, outer, carrier, "non-affine subscripts")
	}

	// fm accumulates the solver work this pair costs, across every system
	// tried; it becomes the pair's remark evidence.
	var fm remarks.FMVerdict
	fm.Exact = true
	bs := linear.VarExpr(bsVar)
	test := func(extra ...linear.Constraint) bool {
		s := b.sys.Copy()
		s.Add(extra...)
		return solveInto(&fm, s).MayHold()
	}
	du := linear.VarExpr(u2).Sub(linear.VarExpr(u1))
	up := test(linear.GE(du, bs))         // consumer block above producer
	down := test(linear.GE(du.Neg(), bs)) // consumer block below producer
	dep := newDep(x, y)
	dep.Irreg = a.irregEvidence(x, y)
	if b.rangeSubst {
		dep.Note = "subscript ranges over-approximate an irregular access"
		fm.Exact = false
	}
	if !up && !down {
		dep.Class = remarks.PrimNone
		dep.FM = fm
		return Verdict{Class: ClassNone, Exact: !b.rangeSubst,
			Deps: []remarks.Dependence{dep}, FM: fm}
	}
	fm.Feasible = true
	v := Verdict{Exact: !b.rangeSubst, WaitLower: up, WaitUpper: down}
	v.Pairs = append(v.Pairs, fmt.Sprintf("%s: %s -> %s", x.name, describe(x), describe(y)))
	dep.Rejected = append(dep.Rejected, remarks.Alternative{
		Primitive: remarks.PrimNone,
		Reason:    "communication across a block boundary is feasible"})

	farUp := up && test(linear.GE(du, bs.Scale(2)))
	farDown := down && test(linear.GE(du.Neg(), bs.Scale(2)))
	if !farUp && !farDown {
		v.Class = ClassNeighbor
		dep.Class = remarks.PrimNeighbor
		dep.FM = fm
		v.Deps = []remarks.Dependence{dep}
		v.FM = fm
		return v
	}
	dep.Rejected = append(dep.Rejected, remarks.Alternative{
		Primitive: remarks.PrimNeighbor,
		Reason:    "communication spanning two or more blocks is feasible"})

	if a.singleProducer(x, y, outer, carrier, up, down, &fm) {
		v.Class = ClassCounter
		v.WaitLower, v.WaitUpper = false, false
		dep.Class = remarks.PrimCounter
		dep.FM = fm
		v.Deps = []remarks.Dependence{dep}
		v.FM = fm
		return v
	}
	dep.Rejected = append(dep.Rejected, remarks.Alternative{
		Primitive: remarks.PrimCounter,
		Reason:    "two distinct producers can feed one sync instance"})
	if b.rangeSubst {
		// The barrier conclusion rests on range over-approximation of an
		// irregular subscript: the true communication set is data-dependent,
		// exactly what a runtime inspector scan resolves.
		if iv, ok := a.inspectorVerdict(x, y, outer, carrier,
			"communication set is data-dependent (irregular subscripts)", &fm, dep.Rejected); ok {
			return iv
		}
	}
	v.Class = ClassBarrier
	v.WaitLower, v.WaitUpper = false, false
	dep.Class = remarks.PrimBarrier
	dep.FM = fm
	v.Deps = []remarks.Dependence{dep}
	v.FM = fm
	return v
}

func (x access) replicatedSide() bool {
	// Replicated statements execute on every worker, so their reads are
	// consumed by all processors even though no parallel loop encloses
	// them.
	return x.modeIsReplicated()
}

func barrierVerdict(x, y access, why string) Verdict {
	dep := newDep(x, y)
	dep.Class = remarks.PrimBarrier
	dep.Note = why
	dep.FM = remarks.FMVerdict{Feasible: true, Exact: false}
	reason := "not provable: " + why
	dep.Rejected = []remarks.Alternative{
		{Primitive: remarks.PrimNone, Reason: reason},
		{Primitive: remarks.PrimNeighbor, Reason: reason},
		{Primitive: remarks.PrimCounter, Reason: reason},
	}
	return Verdict{
		Class: ClassBarrier,
		Exact: false,
		Pairs: []string{fmt.Sprintf("%s: %s -> %s (%s)", x.name, describe(x), describe(y), why)},
		Deps:  []remarks.Dependence{dep},
		FM:    dep.FM,
	}
}

// bailVerdict handles a conservative bailout: when the pair qualifies
// for inspector synthesis the bail becomes a ClassInspector verdict;
// otherwise it is the usual barrier, with an inspector rung recorded on
// the rejection ladder for index-array pairs (so remarks show the
// dynamic tier was considered and why it did not apply).
func (a *Analyzer) bailVerdict(x, y access, outer []*ir.Loop, carrier *ir.Loop, why string) Verdict {
	if v, ok := a.inspectorVerdict(x, y, outer, carrier, why, nil, nil); ok {
		return v
	}
	v := barrierVerdict(x, y, why)
	if a.usesIndexArrays(x, y) {
		v.Deps[0].Irreg = a.irregEvidence(x, y)
		v.Deps[0].Rejected = append(v.Deps[0].Rejected, remarks.Alternative{
			Primitive: remarks.PrimInspector,
			Reason:    "not inspectable: bounds or subscripts not scan-evaluable"})
	}
	return v
}

// inspectorVerdict builds a ClassInspector verdict for the pair when it
// is eligible. fm (optional) carries solver work already spent on the
// pair; rejected (optional) replaces the generic rejection ladder.
func (a *Analyzer) inspectorVerdict(x, y access, outer []*ir.Loop, carrier *ir.Loop,
	why string, fm *remarks.FMVerdict, rejected []remarks.Alternative) (Verdict, bool) {
	pair, ok := a.inspectable(x, y, outer, carrier)
	if !ok {
		return Verdict{}, false
	}
	dep := newDep(x, y)
	dep.Class = remarks.PrimInspector
	dep.Note = why
	dep.Irreg = a.irregEvidence(x, y)
	if fm != nil {
		dep.FM = *fm
		dep.FM.Feasible = true
		dep.FM.Exact = false
	} else {
		dep.FM = remarks.FMVerdict{Feasible: true, Exact: false}
	}
	if rejected != nil {
		dep.Rejected = rejected
	} else {
		reason := "not provable: " + why
		dep.Rejected = []remarks.Alternative{
			{Primitive: remarks.PrimNone, Reason: reason},
			{Primitive: remarks.PrimNeighbor, Reason: reason},
			{Primitive: remarks.PrimCounter, Reason: reason},
		}
	}
	return Verdict{
		Class:   ClassInspector,
		Exact:   false,
		Pairs:   []string{fmt.Sprintf("%s: %s -> %s (inspector: %s)", x.name, describe(x), describe(y), why)},
		Deps:    []remarks.Dependence{dep},
		Inspect: []InspectPair{pair},
		FM:      dep.FM,
	}, true
}

func describe(a access) string {
	kind := "read"
	if a.write {
		kind = "write"
	}
	what := a.name
	if a.ref != nil {
		what = ir.ExprString(a.ref)
	}
	return fmt.Sprintf("%s %s [%s]", kind, what, a.mode)
}

// placementOf returns the placement of the first distributed loop
// (parallel or wavefront) in the access's chain, or (nil, false) when the
// access is master- or replicated-executed. Wavefront loops are placed:
// their chunks are owner-computes distributed exactly like a parallel
// loop's iterations, only their intra-loop order is serialized by the
// relay.
func (a *Analyzer) placementOf(acc access) (*decomp.Placement, bool) {
	for _, l := range acc.chain {
		if l.Parallel || a.Plan.Wavefront[l] {
			if pl := a.Plan.Placements[l]; pl != nil {
				return pl, true
			}
			return nil, true // distributed but unplaced: conservative
		}
	}
	return nil, false
}

// singleProducer tests whether two *distinct* processors can both act as
// the X-side endpoint of a communicating pair within one synchronization
// instance. If not, a counter with target 1 per instance replaces the
// barrier (the paper's broadcast/counter case).
func (a *Analyzer) singleProducer(x, y access, outer []*ir.Loop, carrier *ir.Loop, up, down bool, fm *remarks.FMVerdict) bool {
	b := newBuilder(a, outer, carrier)
	// Two full copies of the pair system sharing the symbols, the outer
	// indices and BOTH carrier iterations: producer uniqueness is per
	// synchronization instance, i.e. within one (producing iteration,
	// consuming iteration) pair — the paper's per-iteration counter
	// ("IF (J == I+1) increment counter"). The counter boundary sync is
	// a one-way completion ordering, so the refinement cannot compromise
	// soundness, only the classification. Different copy suffixes keep
	// all other variables disjoint.
	kyShared := b.ky
	if b.carrier != nil {
		kyShared = b.newCarrierVar("$yS")
	}
	u1a, ok1 := b.side(x, "$x1", b.kx)
	u2a, ok2 := b.side(y, "$y1", kyShared)
	u1b, ok3 := b.side(x, "$x2", b.kx)
	u2b, ok4 := b.side(y, "$y2", kyShared)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return false
	}
	if !b.equateSubscripts(x, y, "$x1", "$y1") || !b.equateSubscripts(x, y, "$x2", "$y2") {
		return false
	}
	bs := linear.VarExpr(bsVar)
	// Distinct producers (by symmetry one order suffices).
	b.sys.AddGE(linear.VarExpr(u1a).Sub(linear.VarExpr(u1b)), bs)

	var dirs []func(u1, u2 linear.Var) linear.Constraint
	if up {
		dirs = append(dirs, func(u1, u2 linear.Var) linear.Constraint {
			return linear.GE(linear.VarExpr(u2).Sub(linear.VarExpr(u1)), bs)
		})
	}
	if down {
		dirs = append(dirs, func(u1, u2 linear.Var) linear.Constraint {
			return linear.GE(linear.VarExpr(u1).Sub(linear.VarExpr(u2)), bs)
		})
	}
	for _, d1 := range dirs {
		for _, d2 := range dirs {
			s := b.sys.Copy()
			s.Add(d1(u1a, u2a), d2(u1b, u2b))
			if solveInto(fm, s).MayHold() {
				return false
			}
		}
	}
	return true
}

// solveInto solves s and tallies its solver work into fm, the evidence of
// the pair being classified; a solve that gave up clears fm.Exact.
func solveInto(fm *remarks.FMVerdict, s *linear.System) linear.Result {
	in := s.SolveDetailed()
	fm.Systems++
	fm.VarsEliminated += in.VarsEliminated
	fm.IneqsGenerated += in.IneqsGenerated
	fm.IneqsRetained += in.IneqsRetained
	if in.Result == linear.Unknown {
		fm.Exact = false
	}
	return in.Result
}

// classifyCyclic handles cyclic distributions, where block-origin geometry
// does not apply. Owner(x) = (x-1) mod P, so equal placement coordinates
// imply the same owner regardless of space extents; anything else may
// communicate. The master remains a distribution-independent single
// producer (counter); all other communication keeps its barrier.
func (a *Analyzer) classifyCyclic(x, y access, outer []*ir.Loop, carrier *ir.Loop, parX bool) Verdict {
	b := newBuilder(a, outer, carrier)
	if _, ok := b.side(x, "$x", b.kx); !ok {
		return barrierVerdict(x, y, "non-affine access")
	}
	if _, ok := b.side(y, "$y", b.ky); !ok {
		return barrierVerdict(x, y, "non-affine access")
	}
	if !b.equateSubscripts(x, y, "$x", "$y") {
		return barrierVerdict(x, y, "non-affine subscripts")
	}
	var fm remarks.FMVerdict
	fm.Exact = true
	solve := func(s *linear.System) bool { return solveInto(&fm, s).MayHold() }
	dep := newDep(x, y)
	dep.Note = "cyclic distribution"
	x1, ok1 := b.xexpr["$x"]
	x2, ok2 := b.xexpr["$y"]
	if ok1 && ok2 {
		lt := solve(b.sys.Copy().AddGE(x2.Sub(x1), linear.NewAffine(1)))
		gt := solve(b.sys.Copy().AddGE(x1.Sub(x2), linear.NewAffine(1)))
		if !lt && !gt {
			dep.Class = remarks.PrimNone
			dep.FM = fm
			return Verdict{Class: ClassNone, Exact: true,
				Deps: []remarks.Dependence{dep}, FM: fm}
		}
	}
	fm.Feasible = true
	v := Verdict{Exact: true,
		Pairs: []string{fmt.Sprintf("%s: %s -> %s (cyclic)", x.name, describe(x), describe(y))}}
	dep.Rejected = append(dep.Rejected, remarks.Alternative{
		Primitive: remarks.PrimNone,
		Reason:    "distinct cyclic owners may communicate"})
	dep.Rejected = append(dep.Rejected, remarks.Alternative{
		Primitive: remarks.PrimNeighbor,
		Reason:    "cyclic distribution has no block adjacency"})
	if !parX && !x.modeIsReplicated() {
		v.Class = ClassCounter
		dep.Class = remarks.PrimCounter
	} else {
		v.Class = ClassBarrier
		dep.Class = remarks.PrimBarrier
		dep.Rejected = append(dep.Rejected, remarks.Alternative{
			Primitive: remarks.PrimCounter,
			Reason:    "multiple producers possible under cyclic distribution"})
	}
	dep.FM = fm
	v.Deps = []remarks.Dependence{dep}
	v.FM = fm
	return v
}

// builder accumulates the constraint system for one access pair.
type builder struct {
	a       *Analyzer
	sys     *linear.System
	outer   []*ir.Loop
	carrier *ir.Loop
	// kx, ky: carrier index variables for the X (earlier) and Y (later)
	// sides; zero Vars when there is no carrier.
	kx, ky linear.Var
	// envs per side suffix, for subscript conversion.
	envs map[string]*ir.AffineEnv
	bind map[string]map[string]linear.Var // suffix -> index name -> var
	// xexpr records each side's placement coordinate expression.
	xexpr map[string]linear.Affine
	// factsOK marks the side suffixes whose accesses may use irreg value
	// facts (the access's statement is not part of the guarded setup
	// prefix that establishes them).
	factsOK map[string]bool
	// rngs holds, per side suffix, the symbolic ranges of the bound loop
	// indices, for interval evaluation of non-affine subscripts.
	rngs map[string]map[string]irreg.Rng
	// rangeSubst records that a subscript or loop bound was replaced by
	// its value range — an over-approximation of the true access set, so
	// any verdict built on it is conservative (and a Barrier conclusion
	// becomes an inspector-rescue candidate).
	rangeSubst bool
	// nv numbers the fresh range-substitution variables.
	nv int
}

func newBuilder(a *Analyzer, outer []*ir.Loop, carrier *ir.Loop) *builder {
	b := &builder{
		a:       a,
		sys:     a.Ctx.Assume.Copy(),
		envs:    map[string]*ir.AffineEnv{},
		bind:    map[string]map[string]linear.Var{},
		xexpr:   map[string]linear.Affine{},
		factsOK: map[string]bool{},
		rngs:    map[string]map[string]irreg.Rng{},
	}
	b.sys.AddGE(linear.VarExpr(bsVar), linear.NewAffine(1))

	// Shared outer indices: one variable per index, bounds added once.
	shared := ir.NewAffineEnv(a.Ctx.Prog)
	sharedBind := map[string]linear.Var{}
	for _, ol := range outer {
		v := linear.Loop(ol.Index)
		shared.Bind(ol.Index, v)
		sharedBind[ol.Index] = v
		b.addBounds(shared, ol, v)
	}
	b.outer = outer
	b.carrier = carrier
	b.envs[""] = shared
	b.bind[""] = sharedBind

	if carrier != nil {
		b.kx = linear.Loop(carrier.Index + "$kx")
		b.ky = b.newCarrierVar("$ky")
		envX := shared.Clone()
		envX.Bind(carrier.Index, b.kx)
		b.addBounds(envX, carrier, b.kx)
	}
	return b
}

// newCarrierVar introduces a fresh later-iteration carrier variable with
// bounds and the ordering constraint kx + 1 <= k.
func (b *builder) newCarrierVar(sfx string) linear.Var {
	if b.carrier == nil {
		return linear.Var{}
	}
	v := linear.Loop(b.carrier.Index + sfx)
	env := b.envs[""].Clone()
	env.Bind(b.carrier.Index, v)
	b.addBounds(env, b.carrier, v)
	b.sys.AddGE(linear.VarExpr(v), linear.VarExpr(b.kx).AddConst(1))
	return v
}

func (b *builder) addBounds(env *ir.AffineEnv, l *ir.Loop, v linear.Var) bool {
	lo, ok1 := env.Affine(l.Lo)
	hi, ok2 := env.Affine(l.Hi)
	if !ok1 || !ok2 {
		return false
	}
	b.sys.AddRange(v, lo, hi)
	return true
}

// side adds the constraints describing where access acc executes, under
// copy suffix sfx, with the given carrier variable (ignored when there is
// no carrier). It returns the processor block-origin variable.
func (b *builder) side(acc access, sfx string, carrierVar linear.Var) (linear.Var, bool) {
	env := b.envs[""].Clone()
	bind := map[string]linear.Var{}
	for k, v := range b.bind[""] {
		bind[k] = v
	}
	if b.carrier != nil {
		env.Bind(b.carrier.Index, carrierVar)
		bind[b.carrier.Index] = carrierVar
	}
	// Value facts describe array contents only after the guarded setup
	// prefix has run, so the affine content hook (which turns reads like
	// P(i) into the affine i) is installed only for accesses outside it.
	factsOK := b.a.Facts != nil && !b.a.Facts.Setup[acc.stmt]
	if factsOK {
		env.SetArrayContent(b.a.Facts.Content)
	}
	b.factsOK[sfx] = factsOK
	idx := map[string]irreg.Rng{}
	noteRng := func(l *ir.Loop) {
		lo, ok1 := env.Affine(l.Lo)
		hi, ok2 := env.Affine(l.Hi)
		if ok1 && ok2 {
			idx[l.Index] = irreg.Rng{Lo: &lo, Hi: &hi}
		}
	}
	for _, ol := range b.outer {
		noteRng(ol)
	}
	if b.carrier != nil {
		noteRng(b.carrier)
	}

	u := linear.Proc("u" + sfx)
	b.sys.AddGE(linear.VarExpr(u), linear.NewAffine(0))

	placed := false
	for _, l := range acc.chain {
		v := linear.Loop(l.Index + sfx)
		env.Bind(l.Index, v)
		bind[l.Index] = v
		if !b.addBounds(env, l, v) {
			if !factsOK || !b.relaxBounds(env, l, v, idx) {
				return u, false
			}
		}
		noteRng(l)
		if (l.Parallel || b.a.Plan.Wavefront[l]) && !placed {
			pl := b.a.Plan.Placements[l]
			if pl == nil {
				return u, false
			}
			off := substLoopVars(pl.Offset, bind)
			ext := substLoopVars(pl.Space.Extent, bind)
			x := linear.VarExpr(v).Add(off)
			// Ownership: u+1 <= x <= u+B, x within the space,
			// u a valid block origin.
			b.sys.AddGE(x, linear.VarExpr(u).AddConst(1))
			b.sys.AddLE(x, linear.VarExpr(u).Add(linear.VarExpr(bsVar)))
			b.sys.AddGE(x, linear.NewAffine(1))
			b.sys.AddLE(x, ext)
			b.sys.AddLE(linear.VarExpr(u), ext.AddConst(-1))
			b.xexpr[sfx] = x
			placed = true
		}
	}
	if !placed && !acc.modeIsReplicated() {
		// Master-executed: block origin 0.
		b.sys.AddEQ(linear.VarExpr(u), linear.NewAffine(0))
	}
	// Guard conditions restrict when the access happens at all; affine
	// pieces sharpen the system (the paper's guarded computations,
	// §2.3 — e.g. `if i == k + 1 then` pins the producing iteration).
	for _, g := range acc.guards {
		b.addGuard(g.cond, g.negated, env)
	}
	b.envs[sfx] = env
	b.bind[sfx] = bind
	b.rngs[sfx] = idx
	return u, true
}

// relaxBounds handles a chain loop whose bounds are not affine even with
// content substitution (e.g. `do k = rp(i), rp(i+1) - 1` over a frozen
// index array without exact content): each bound is replaced by its
// interval-domain evaluation against the irreg facts, keeping one-sided
// constraints when only one endpoint is known. Dropping the exact bound
// for a wider one only enlarges the system's solution set, so every
// conclusion drawn downstream stays conservative; rangeSubst records the
// loss of exactness. Only bounds that actually read fact-bearing arrays
// are relaxed — anything else keeps the historical non-affine bail.
func (b *builder) relaxBounds(env *ir.AffineEnv, l *ir.Loop, v linear.Var, idx map[string]irreg.Rng) bool {
	if !b.boundUsesFacts(l.Lo) && !b.boundUsesFacts(l.Hi) {
		return false
	}
	got := false
	if lo, ok := env.Affine(l.Lo); ok {
		b.sys.AddGE(linear.VarExpr(v), lo)
		got = true
	} else if r, ok := b.a.Facts.ExprRange(l.Lo, idx); ok && r.Lo != nil {
		b.sys.AddGE(linear.VarExpr(v), *r.Lo)
		got = true
	}
	if hi, ok := env.Affine(l.Hi); ok {
		b.sys.AddLE(linear.VarExpr(v), hi)
		got = true
	} else if r, ok := b.a.Facts.ExprRange(l.Hi, idx); ok && r.Hi != nil {
		b.sys.AddLE(linear.VarExpr(v), *r.Hi)
		got = true
	}
	if !got {
		return false
	}
	b.rangeSubst = true
	return true
}

// boundUsesFacts reports whether e reads an array with irreg value facts.
func (b *builder) boundUsesFacts(e ir.Expr) bool {
	found := false
	ir.WalkExprs(e, func(n ir.Expr) {
		if r, ok := n.(*ir.Ref); ok && r.IsArray() {
			if af := b.a.Facts.Array(r.Name); af != nil && (af.Frozen || af.Content || af.HasRange) {
				found = true
			}
		}
	})
	return found
}

// addGuard conjoins the affine content of a guard condition (best-effort:
// non-affine or disjunctive pieces are skipped, which is conservative —
// dropping a constraint only enlarges the system's solution set).
func (b *builder) addGuard(e ir.Expr, negated bool, env *ir.AffineEnv) {
	switch n := e.(type) {
	case *ir.Unary:
		if n.Op == '!' {
			b.addGuard(n.X, !negated, env)
		}
	case *ir.Bin:
		switch n.Op {
		case ir.AndOp:
			if !negated {
				// a ∧ b: both conjuncts hold.
				b.addGuard(n.L, false, env)
				b.addGuard(n.R, false, env)
			}
			// ¬(a ∧ b) is a disjunction: skip.
		case ir.OrOp:
			if negated {
				// ¬(a ∨ b) = ¬a ∧ ¬b.
				b.addGuard(n.L, true, env)
				b.addGuard(n.R, true, env)
			}
		case ir.EqOp, ir.NeOp, ir.LtOp, ir.LeOp, ir.GtOp, ir.GeOp:
			l, ok1 := env.Affine(n.L)
			r, ok2 := env.Affine(n.R)
			if !ok1 || !ok2 {
				return
			}
			op := n.Op
			if negated {
				switch op {
				case ir.EqOp:
					op = ir.NeOp
				case ir.NeOp:
					op = ir.EqOp
				case ir.LtOp:
					op = ir.GeOp
				case ir.LeOp:
					op = ir.GtOp
				case ir.GtOp:
					op = ir.LeOp
				case ir.GeOp:
					op = ir.LtOp
				}
			}
			switch op {
			case ir.EqOp:
				b.sys.AddEQ(l, r)
			case ir.NeOp:
				// Disjunction (< or >): skip.
			case ir.LtOp:
				b.sys.AddLE(l, r.AddConst(-1))
			case ir.LeOp:
				b.sys.AddLE(l, r)
			case ir.GtOp:
				b.sys.AddGE(l, r.AddConst(1))
			case ir.GeOp:
				b.sys.AddGE(l, r)
			}
		}
	}
}

// equateSubscripts adds dimension-wise equality between the two array
// references (no-op for scalars). Returns false on non-affine subscripts.
// For pairs that read frozen index arrays, a non-affine dimension falls
// back to a fresh variable constrained to the subscript's value range
// (an over-approximation of the real access set — see rangeSubst).
func (b *builder) equateSubscripts(x, y access, sfxX, sfxY string) bool {
	if x.scalar || y.scalar {
		return true
	}
	if len(x.ref.Subs) != len(y.ref.Subs) {
		return false
	}
	relax := b.a.Facts != nil && b.a.usesIndexArrays(x, y)
	envX, envY := b.envs[sfxX], b.envs[sfxY]
	for d := range x.ref.Subs {
		sx, okX := envX.Affine(x.ref.Subs[d])
		sy, okY := envY.Affine(y.ref.Subs[d])
		if !okX {
			sx, okX = b.rangeVar(x.ref.Subs[d], sfxX, relax && b.factsOK[sfxX])
		}
		if !okY {
			sy, okY = b.rangeVar(y.ref.Subs[d], sfxY, relax && b.factsOK[sfxY])
		}
		if !okX || !okY {
			return false
		}
		b.sys.AddEQ(sx, sy)
	}
	return true
}

// rangeVar introduces a fresh variable standing for a non-affine
// subscript, constrained to the subscript's interval-domain value range.
func (b *builder) rangeVar(sub ir.Expr, sfx string, allowed bool) (linear.Affine, bool) {
	if !allowed {
		return linear.Affine{}, false
	}
	r, ok := b.a.Facts.ExprRange(sub, b.rngs[sfx])
	if !ok || (r.Lo == nil && r.Hi == nil) {
		return linear.Affine{}, false
	}
	b.nv++
	v := linear.Arr(fmt.Sprintf("$r%d%s", b.nv, sfx))
	if r.Lo != nil {
		b.sys.AddGE(linear.VarExpr(v), *r.Lo)
	}
	if r.Hi != nil {
		b.sys.AddLE(linear.VarExpr(v), *r.Hi)
	}
	b.rangeSubst = true
	return linear.VarExpr(v), true
}

// substLoopVars replaces loop-kind variables in aff according to bind.
func substLoopVars(aff linear.Affine, bind map[string]linear.Var) linear.Affine {
	out := aff
	for _, v := range aff.Vars() {
		if v.Kind != linear.KindLoop {
			continue
		}
		if nv, ok := bind[v.Name]; ok && nv != v {
			out = out.Substitute(v, linear.VarExpr(nv))
		}
	}
	return out
}
