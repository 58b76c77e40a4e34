// Package irreg analyzes irregular (non-affine) access patterns. A
// forward dataflow pass over the program body computes a per-variable
// value lattice — symbolic integer ranges for scalars, and element facts
// for index arrays (value range, affine content, monotonicity,
// injectivity/permutation, initialized-prefix coverage) — by examining
// the statements that write them. The facts feed two consumers:
//
//   - comm's classifier substitutes affine contents for subscripted
//     index-array reads, closing Fourier-Motzkin systems that would
//     otherwise bail to a barrier (the static tier), and
//   - the inspector/executor synthesis (comm + exec) uses stability and
//     evaluability to decide which crossings can be resolved by a
//     runtime scan of the actual index arrays (the dynamic tier).
//
// Soundness: value facts are established only by master-guarded
// straight-line setup code (region.ModeGuarded) — an initialization
// prefix plus covering serial loops — over arrays that are written
// nowhere else. The executor runs guarded statements on the master
// worker alone, and the sync boundary comm emits between the guarded
// producer and its first parallel consumer orders those writes before
// every cross-worker read, including inspector scans.
package irreg

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/ir"
	"repro/internal/linear"
	"repro/internal/region"
)

// Rng is a symbolic inclusive interval. Endpoints are affine over the
// program's symbolic parameters; a nil endpoint is unbounded.
type Rng struct {
	Lo, Hi *linear.Affine
}

// Bounded reports whether both endpoints are known.
func (r Rng) Bounded() bool { return r.Lo != nil && r.Hi != nil }

func (r Rng) String() string {
	lo, hi := "-inf", "+inf"
	if r.Lo != nil {
		lo = r.Lo.String()
	}
	if r.Hi != nil {
		hi = r.Hi.String()
	}
	return "[" + lo + ", " + hi + "]"
}

func (r Rng) equal(o Rng) bool {
	eq := func(a, b *linear.Affine) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		return a == nil || a.Equal(*b)
	}
	return eq(r.Lo, o.Lo) && eq(r.Hi, o.Hi)
}

func pt(a linear.Affine) *linear.Affine { return &a }

// ScalarFact is the range of an integer-valued scalar written exactly
// once, by guarded setup code.
type ScalarFact struct {
	Name string
	Rng  Rng
	Pos  ir.Pos
}

// ArrayFact summarizes what the analysis knows about one rank-1 array.
type ArrayFact struct {
	Array string

	// Stable: every write to the array is master-guarded (or the array
	// is never written), so there is exactly one writer.
	Stable bool
	// Frozen: stable, and every write precedes the first parallel (or
	// wavefront) region of the program. Runtime inspector scans may read
	// frozen arrays: the producer-to-consumer sync comm emits for the
	// direct subscript reads orders the master's writes before every
	// worker's first crossing.
	Frozen bool

	// Covered: the setup writes initialize exactly elements
	// CoverLo..CoverHi and that span is the whole declared extent, so
	// every in-bounds read sees an analyzed value.
	Covered          bool
	CoverLo, CoverHi linear.Affine

	// Content: element k holds ContentA*k + ContentB (exactly, as an
	// integer) for every k in the cover.
	Content  bool
	ContentA int64
	ContentB linear.Affine

	// Rng bounds the element values over the cover (valid only when
	// Covered).
	HasRange bool
	Rng      Rng

	// Monotone: +1 strictly increasing in k, -1 strictly decreasing,
	// 0 unknown.
	Monotone int
	// Injective: distinct subscripts hold distinct values.
	Injective bool
	// Permutation: the elements are exactly a permutation of
	// CoverLo..CoverHi.
	Permutation bool

	// Pos is the position of the establishing setup write.
	Pos ir.Pos
}

// Describe renders the value facts as short evidence strings for
// remarks and CLI dumps.
func (af *ArrayFact) Describe() []string {
	if af == nil {
		return nil
	}
	var out []string
	if af.Content {
		out = append(out, fmt.Sprintf("content %s(k) = %s on [%s, %s]",
			af.Array, contentString(af.ContentA, af.ContentB),
			af.CoverLo.String(), af.CoverHi.String()))
	}
	if af.HasRange {
		out = append(out, fmt.Sprintf("range %s(k) in %s", af.Array, af.Rng.String()))
	}
	switch af.Monotone {
	case 1:
		out = append(out, fmt.Sprintf("%s strictly increasing", af.Array))
	case -1:
		out = append(out, fmt.Sprintf("%s strictly decreasing", af.Array))
	}
	if af.Permutation {
		out = append(out, fmt.Sprintf("%s permutation of [%s, %s]",
			af.Array, af.CoverLo.String(), af.CoverHi.String()))
	} else if af.Injective {
		out = append(out, fmt.Sprintf("%s injective", af.Array))
	}
	if len(out) == 0 && af.Frozen {
		out = append(out, fmt.Sprintf("%s stable (guarded setup writes only)", af.Array))
	}
	return out
}

func contentString(a int64, b linear.Affine) string {
	k := linear.Loop("k")
	return linear.Term(k, a).Add(b).String()
}

// Facts is the analysis result for one program.
type Facts struct {
	MinParam int64
	Arrays   map[string]*ArrayFact
	Scalars  map[string]*ScalarFact

	// Setup holds the top-level statements of the all-guarded setup
	// prefix (everything before the first parallel, wavefront or
	// sequential-loop region work). Value facts describe array contents
	// only after the prefix has executed, so consumers must not apply
	// them to accesses made by the prefix's own statements.
	Setup map[ir.Stmt]bool

	prog   *ir.Program
	params map[string]bool
}

// Array returns the fact record for an array (nil when unknown).
func (f *Facts) Array(name string) *ArrayFact {
	if f == nil {
		return nil
	}
	return f.Arrays[name]
}

// Content returns the affine content of rank-1 array name at affine
// subscript sub, when a covering content fact exists. The result is
// suitable for installation as an ir.AffineEnv array-content hook.
func (f *Facts) Content(name string, sub linear.Affine) (linear.Affine, bool) {
	af := f.Array(name)
	if af == nil || !af.Content || !af.Covered {
		return linear.Affine{}, false
	}
	return sub.Scale(af.ContentA).Add(af.ContentB), true
}

// StableIndex reports whether an array is frozen guarded-setup data: a
// runtime inspector scan may read it (once comm's producer sync has
// ordered the setup writes).
func (f *Facts) StableIndex(name string) bool {
	af := f.Array(name)
	return af != nil && af.Frozen
}

// Evaluable reports whether x can be evaluated by an inspector scan
// without touching mutable shared state: leaves are the loop indices in
// indices, program parameters and integral literals, plus rank-1 reads
// of frozen index arrays through evaluable subscripts; operators are
// +, -, *, unary minus and the mod/min/max intrinsics. Float division
// is excluded (it does not produce integers under DSL semantics).
func (f *Facts) Evaluable(x ir.Expr, indices map[string]bool) bool {
	if f == nil {
		return false
	}
	switch n := x.(type) {
	case *ir.Num:
		_, ok := integralNum(n)
		return ok
	case *ir.Ref:
		if n.IsArray() {
			return len(n.Subs) == 1 && f.StableIndex(n.Name) &&
				f.Evaluable(n.Subs[0], indices)
		}
		return indices[n.Name] || f.params[n.Name]
	case *ir.Unary:
		return n.Op == '-' && f.Evaluable(n.X, indices)
	case *ir.Bin:
		switch n.Op {
		case ir.Add, ir.Sub, ir.Mul:
			return f.Evaluable(n.L, indices) && f.Evaluable(n.R, indices)
		}
		return false
	case *ir.Call:
		switch n.Name {
		case "mod", "min", "max":
			return len(n.Args) == 2 && f.Evaluable(n.Args[0], indices) &&
				f.Evaluable(n.Args[1], indices)
		}
		return false
	}
	return false
}

// Dump writes a deterministic rendering of every fact.
func (f *Facts) Dump(w io.Writer) {
	var names []string
	for n := range f.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		af := f.Arrays[n]
		flags := ""
		if af.Frozen {
			flags = " frozen"
		} else if af.Stable {
			flags = " stable"
		}
		fmt.Fprintf(w, "array %s:%s", n, flags)
		for _, d := range af.Describe() {
			fmt.Fprintf(w, "\n  %s", d)
		}
		fmt.Fprintln(w)
	}
	names = names[:0]
	for n := range f.Scalars {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "scalar %s in %s\n", n, f.Scalars[n].Rng.String())
	}
}

// Analyze runs the dataflow pass. info must be the same classification
// the rest of the pipeline uses (core's region phase); minParam is the
// assumed lower bound of every symbolic parameter (clamped to 1).
func Analyze(prog *ir.Program, info *region.Info, minParam int64) *Facts {
	if minParam < 1 {
		minParam = 1
	}
	f := &Facts{
		MinParam: minParam,
		Arrays:   map[string]*ArrayFact{},
		Scalars:  map[string]*ScalarFact{},
		Setup:    map[ir.Stmt]bool{},
		prog:     prog,
		params:   map[string]bool{},
	}
	for _, p := range prog.Params {
		f.params[p] = true
	}

	// Census: the effective execution mode of every assignment, with
	// nested statements inheriting from the innermost classified
	// ancestor (region only classifies region members).
	type writeRec struct {
		assign *ir.Assign
		mode   region.Mode
	}
	arrWrites := map[string][]writeRec{}
	scalWrites := map[string][]writeRec{}
	var censusWalk func(stmts []ir.Stmt, inherit region.Mode)
	censusWalk = func(stmts []ir.Stmt, inherit region.Mode) {
		for _, s := range stmts {
			m := inherit
			if mm, ok := info.Modes[s]; ok {
				m = mm
			}
			switch n := s.(type) {
			case *ir.Assign:
				rec := writeRec{assign: n, mode: m}
				if n.LHS.IsArray() {
					arrWrites[n.LHS.Name] = append(arrWrites[n.LHS.Name], rec)
				} else {
					scalWrites[n.LHS.Name] = append(scalWrites[n.LHS.Name], rec)
				}
			case *ir.Loop:
				censusWalk(n.Body, m)
			case *ir.If:
				censusWalk(n.Then, m)
				censusWalk(n.Else, m)
			}
		}
	}
	censusWalk(prog.Body, region.ModeGuarded)

	// frozenIdx: index of the first top-level statement that contains
	// any parallel or wavefront work. Writes at or after it cannot be
	// frozen (inspector scans may race with them).
	frozenIdx := len(prog.Body)
	for i, s := range prog.Body {
		m := info.Modes[s]
		if m == region.ModeParallel || m == region.ModeWavefront || m == region.ModeSeqLoop {
			frozenIdx = i
			break
		}
	}
	inSetup := map[*ir.Assign]bool{}
	for _, s := range prog.Body[:frozenIdx] {
		f.Setup[s] = true
		ir.WalkStmts([]ir.Stmt{s}, func(st ir.Stmt) bool {
			if a, ok := st.(*ir.Assign); ok {
				inSetup[a] = true
			}
			return true
		})
	}

	for _, decl := range prog.Arrays {
		af := &ArrayFact{Array: decl.Name, Stable: true, Frozen: true}
		for _, w := range arrWrites[decl.Name] {
			if w.mode != region.ModeGuarded {
				af.Stable, af.Frozen = false, false
				break
			}
			if !inSetup[w.assign] {
				af.Frozen = false
			}
		}
		f.Arrays[decl.Name] = af
	}

	// Scalar facts first (array setup may read them): exactly one
	// write in the whole program, guarded or replicated (every worker
	// computes the same value), inside the setup prefix, with an
	// integral bounded-or-half-bounded value. Walked in program order
	// so later scalars may reference earlier ones.
	for _, s := range prog.Body[:frozenIdx] {
		ir.WalkStmts([]ir.Stmt{s}, func(st ir.Stmt) bool {
			a, ok := st.(*ir.Assign)
			if !ok || a.LHS.IsArray() {
				return true
			}
			ws := scalWrites[a.LHS.Name]
			if len(ws) != 1 {
				return true
			}
			if m := ws[0].mode; m != region.ModeGuarded && m != region.ModeReplicated {
				return true
			}
			r, integral := f.rangeOf(a.RHS, &renv{})
			if integral && (r.Lo != nil || r.Hi != nil) {
				f.Scalars[a.LHS.Name] = &ScalarFact{Name: a.LHS.Name, Rng: r, Pos: a.P}
			}
			return true
		})
	}

	// Establishment pass: walk the guarded setup prefix in program
	// order, recognizing initialization prefixes, covering loops and
	// first-order recurrences. recognized tracks which writes the
	// analysis accounted for; arrays with unaccounted writes keep only
	// their stability flags.
	recognized := map[*ir.Assign]bool{}
	for _, s := range prog.Body[:frozenIdx] {
		if info.Modes[s] != region.ModeGuarded {
			continue
		}
		switch n := s.(type) {
		case *ir.Assign:
			f.establishAssign(n, recognized)
		case *ir.Loop:
			f.establishLoop(n, recognized)
		}
	}

	for name, af := range f.Arrays {
		ok := af.Stable
		for _, w := range arrWrites[name] {
			if !recognized[w.assign] {
				ok = false
				break
			}
		}
		if ok && af.Covered {
			decl := f.prog.Array(name)
			ok = decl != nil && len(decl.Dims) == 1 && f.coversExtent(af, decl.Dims[0])
		}
		if !ok || !af.Covered {
			af.Covered = false
			af.Content = false
			af.HasRange = false
			af.Monotone = 0
			af.Injective = false
			af.Permutation = false
		}
		if af.Content {
			f.deriveFromContent(af)
		}
	}

	return f
}

// establishAssign handles a guarded straight-line array write
// X(c) = v: it starts or extends an initialization prefix.
func (f *Facts) establishAssign(a *ir.Assign, recognized map[*ir.Assign]bool) {
	lhs := a.LHS
	if !lhs.IsArray() {
		return
	}
	if len(lhs.Subs) != 1 {
		return
	}
	af := f.Arrays[lhs.Name]
	if af == nil || !af.Stable {
		return
	}
	sub, ok := f.affineOf(lhs.Subs[0], nil)
	if !ok {
		return
	}
	val, vok := f.affineOf(a.RHS, nil)
	vr, integral := f.rangeOf(a.RHS, &renv{})
	if !integral {
		return
	}
	if !af.Covered && !af.Content && !af.HasRange {
		// First write: open the cover at sub.
		af.Covered = true
		af.CoverLo, af.CoverHi = sub, sub
		if vok {
			af.Content, af.ContentA, af.ContentB = true, 0, val
		}
		af.HasRange, af.Rng = true, vr
		af.Pos = a.P
		recognized[a] = true
		return
	}
	if af.Covered && sub.Equal(af.CoverHi.AddConst(1)) {
		// Contiguous extension of the prefix.
		af.CoverHi = sub
		if af.Content {
			// Stay content-exact only if the new point lies on
			// the same line.
			want := sub.Scale(af.ContentA).Add(af.ContentB)
			if !vok || !val.Equal(want) {
				if vok && af.CoverLo.Equal(af.CoverHi.AddConst(-1)) && af.ContentA == 0 {
					// Two-point prefix: refit the line when
					// the points differ by a constant step.
					step := val.Sub(af.ContentB)
					if step.IsConstant() {
						af.ContentA = step.Const
						af.ContentB = val.Sub(sub.Scale(af.ContentA))
					} else {
						af.Content = false
					}
				} else {
					af.Content = false
				}
			}
		}
		af.HasRange, af.Rng = true, f.join(af.Rng, vr)
		recognized[a] = true
		return
	}
	// Unrecognized write shape: the post-pass drops the value facts.
}

// establishLoop handles a guarded serial loop writing one index array:
//
//	do k = lo, hi
//	  X(k) = RHS(k, params, X(k-1))
//	end do
//
// Direct affine contents, first-order recurrences X(k) = X(k-1) + c and
// range-only recurrences (mod/min/max forms) are recognized.
func (f *Facts) establishLoop(l *ir.Loop, recognized map[*ir.Assign]bool) {
	if len(l.Body) != 1 {
		return
	}
	a, ok := l.Body[0].(*ir.Assign)
	if !ok || !a.LHS.IsArray() || len(a.LHS.Subs) != 1 {
		return
	}
	af := f.Arrays[a.LHS.Name]
	if af == nil || !af.Stable {
		return
	}
	lo, ok1 := f.affineOf(l.Lo, nil)
	hi, ok2 := f.affineOf(l.Hi, nil)
	// hi >= lo-1 keeps the cover claim exact even when the loop runs
	// zero times (covered span collapses to the existing prefix).
	if !ok1 || !ok2 || !f.leq(lo, hi.AddConst(1)) {
		return
	}
	kVar := linear.Loop(l.Index)
	bind := map[string]linear.Affine{l.Index: linear.VarExpr(kVar)}
	sub, ok := f.affineOf(a.LHS.Subs[0], bind)
	if !ok || !sub.Equal(linear.VarExpr(kVar)) {
		return
	}

	// The loop must extend an existing prefix contiguously (cover
	// [.., lo-1] already established) or start fresh at lo.
	fresh := !af.Covered && !af.Content && !af.HasRange
	if !fresh && !(af.Covered && lo.Equal(af.CoverHi.AddConst(1))) {
		return
	}

	prevVar := linear.Arr("·prev·" + a.LHS.Name)
	rhs, rok := f.affineOfRec(a.RHS, bind, a.LHS.Name, linear.VarExpr(kVar).AddConst(-1), prevVar)

	var newContent bool
	var newA int64
	var newB linear.Affine
	if rok {
		p := rhs.Coeff(prevVar)
		q := rhs.Substitute(prevVar, linear.NewAffine(0))
		switch p {
		case 0:
			// Direct content X(k) = q(k).
			kc := q.Coeff(kVar)
			b := q.Substitute(kVar, linear.NewAffine(0))
			newContent, newA, newB = true, kc, b
		case 1:
			// X(k) = X(k-1) + c with c free of k: closed form
			// anchored at the previous cover point lo-1.
			if q.Coeff(kVar) == 0 && q.IsConstant() && af.Content && af.Covered &&
				af.CoverHi.Equal(lo.AddConst(-1)) {
				c := q.Const
				base := af.CoverHi.Scale(af.ContentA).Add(af.ContentB)
				b := base.Sub(lo.AddConst(-1).Scale(c))
				// A multi-point existing segment must already
				// lie on the same line.
				single := af.CoverLo.Equal(af.CoverHi)
				if single || (af.ContentA == c && af.ContentB.Equal(b)) {
					newContent, newA, newB = true, c, b
				}
			}
			// Monotone-only recurrences: X(k) = X(k-1) + c with a
			// provably signed constant step.
			if q.Coeff(kVar) == 0 {
				if flo, ok := f.constFloor(q); ok && flo >= 1 {
					af.Monotone, af.Injective = 1, true
				} else if fhi, ok := f.constCeil(q); ok && fhi <= -1 {
					af.Monotone, af.Injective = -1, true
				}
			}
		}
	}

	// Range: iterate the interval transfer function to a fixpoint.
	env := &renv{
		idx:       map[string]Rng{l.Index: {Lo: pt(lo), Hi: pt(hi)}},
		prevArray: a.LHS.Name,
		prevSub:   linear.VarExpr(kVar).AddConst(-1),
		prevBind:  bind,
	}
	r := af.Rng
	hasRange := af.HasRange
	converged := false
	for pass := 0; pass < 4; pass++ {
		env.prev = r
		vr, integral := f.rangeOf(a.RHS, env)
		if !integral {
			hasRange = false
			break
		}
		nr := f.join(r, vr)
		if hasRange && nr.equal(r) {
			converged = true
			break
		}
		r = nr
		hasRange = true
	}

	if fresh {
		af.Covered, af.CoverLo = true, lo
	}
	af.CoverHi = hi
	af.Pos = a.P
	if newContent {
		af.Content, af.ContentA, af.ContentB = true, newA, newB
	} else {
		af.Content = false
	}
	af.HasRange = hasRange && converged
	if af.HasRange {
		af.Rng = r
	} else {
		af.Rng = Rng{}
	}
	recognized[a] = true
}

// deriveFromContent fills range/monotone/injective/permutation from an
// exact affine content.
func (f *Facts) deriveFromContent(af *ArrayFact) {
	loV := af.CoverLo.Scale(af.ContentA).Add(af.ContentB)
	hiV := af.CoverHi.Scale(af.ContentA).Add(af.ContentB)
	switch {
	case af.ContentA > 0:
		af.Monotone, af.Injective = 1, true
		af.HasRange, af.Rng = true, Rng{Lo: pt(loV), Hi: pt(hiV)}
	case af.ContentA < 0:
		af.Monotone, af.Injective = -1, true
		af.HasRange, af.Rng = true, Rng{Lo: pt(hiV), Hi: pt(loV)}
	default:
		af.HasRange, af.Rng = true, Rng{Lo: pt(loV), Hi: pt(loV)}
	}
	if af.ContentA == 1 && af.ContentB.Equal(linear.NewAffine(0)) {
		af.Permutation = true
	}
	if af.ContentA == -1 && af.ContentB.Equal(af.CoverLo.Add(af.CoverHi)) {
		af.Permutation = true
	}
}

// coversExtent reports whether cover [CoverLo, CoverHi] is exactly the
// whole declared extent 1..dim (so no in-bounds read escapes it).
func (f *Facts) coversExtent(af *ArrayFact, dim ir.Expr) bool {
	if !af.CoverLo.Equal(linear.NewAffine(1)) {
		return false
	}
	ext, integral := f.rangeOf(dim, &renv{})
	if !integral || !ext.Bounded() || !ext.Lo.Equal(*ext.Hi) {
		return false
	}
	return af.CoverHi.Equal(*ext.Lo)
}

// ---- symbolic evaluation ----

func integralNum(n *ir.Num) (int64, bool) {
	if n.IsInt {
		return n.Int, true
	}
	v := int64(n.Val)
	if float64(v) == n.Val {
		return v, true
	}
	return 0, false
}

// affineOf converts x to an affine expression over parameters and the
// loop indices bound in bind. Float literals with integral values are
// accepted (DSL arithmetic is float-typed).
func (f *Facts) affineOf(x ir.Expr, bind map[string]linear.Affine) (linear.Affine, bool) {
	return f.affineOfRec(x, bind, "", linear.Affine{}, linear.Var{})
}

// affineOfRec is affineOf plus recognition of the recurrence
// self-reference prevArray(prevSub), mapped to prevVar.
func (f *Facts) affineOfRec(x ir.Expr, bind map[string]linear.Affine,
	prevArray string, prevSub linear.Affine, prevVar linear.Var) (linear.Affine, bool) {
	switch n := x.(type) {
	case *ir.Num:
		v, ok := integralNum(n)
		if !ok {
			return linear.Affine{}, false
		}
		return linear.NewAffine(v), true
	case *ir.Ref:
		if n.IsArray() {
			if prevArray == "" || n.Name != prevArray || len(n.Subs) != 1 {
				return linear.Affine{}, false
			}
			sub, ok := f.affineOfRec(n.Subs[0], bind, "", linear.Affine{}, linear.Var{})
			if !ok || !sub.Equal(prevSub) {
				return linear.Affine{}, false
			}
			return linear.VarExpr(prevVar), true
		}
		if a, ok := bind[n.Name]; ok {
			return a, true
		}
		if f.params[n.Name] {
			return linear.VarExpr(linear.Sym(n.Name)), true
		}
		if sf := f.Scalars[n.Name]; sf != nil && sf.Rng.Bounded() && sf.Rng.Lo.Equal(*sf.Rng.Hi) {
			return *sf.Rng.Lo, true
		}
		return linear.Affine{}, false
	case *ir.Unary:
		if n.Op != '-' {
			return linear.Affine{}, false
		}
		a, ok := f.affineOfRec(n.X, bind, prevArray, prevSub, prevVar)
		if !ok {
			return linear.Affine{}, false
		}
		return a.Neg(), true
	case *ir.Bin:
		l, ok1 := f.affineOfRec(n.L, bind, prevArray, prevSub, prevVar)
		r, ok2 := f.affineOfRec(n.R, bind, prevArray, prevSub, prevVar)
		if !ok1 || !ok2 {
			return linear.Affine{}, false
		}
		switch n.Op {
		case ir.Add:
			return l.Add(r), true
		case ir.Sub:
			return l.Sub(r), true
		case ir.Mul:
			if l.IsConstant() {
				return r.Scale(l.Const), true
			}
			if r.IsConstant() {
				return l.Scale(r.Const), true
			}
		}
		return linear.Affine{}, false
	}
	return linear.Affine{}, false
}

// ExprRange evaluates x in the interval domain against the finished
// facts, with idx supplying ranges for in-scope loop indices (by source
// name). Unlike the establishment-time evaluation, reads of covered
// fact-bearing arrays fall back to the array's element range (sound
// once analysis is complete: Covered implies the cover is the whole
// extent, so every in-bounds read sees an analyzed value).
func (f *Facts) ExprRange(x ir.Expr, idx map[string]Rng) (Rng, bool) {
	if f == nil {
		return Rng{}, false
	}
	return f.rangeOf(x, &renv{idx: idx, final: true})
}

// renv binds loop indices (and the recurrence self-reference) to ranges
// for interval evaluation.
type renv struct {
	idx       map[string]Rng
	prevArray string
	prevSub   linear.Affine
	prevBind  map[string]linear.Affine
	prev      Rng
	// final marks post-analysis evaluation, enabling the covered-array
	// range fallback (unsound mid-establishment, where covers are still
	// partial).
	final bool
}

// rangeOf evaluates x in the interval domain. The second result
// reports whether the value is known to be integral; a false return
// invalidates any fact derived from it.
func (f *Facts) rangeOf(x ir.Expr, env *renv) (Rng, bool) {
	switch n := x.(type) {
	case *ir.Num:
		v, ok := integralNum(n)
		if !ok {
			return Rng{}, false
		}
		a := linear.NewAffine(v)
		return Rng{Lo: pt(a), Hi: pt(a)}, true
	case *ir.Ref:
		if n.IsArray() {
			if env.prevArray != "" && n.Name == env.prevArray && len(n.Subs) == 1 {
				sub, ok := f.affineOf(n.Subs[0], env.prevBind)
				if ok && sub.Equal(env.prevSub) {
					return env.prev, true
				}
			}
			if env.final && len(n.Subs) == 1 {
				if af := f.Arrays[n.Name]; af != nil && af.Covered && af.HasRange {
					return af.Rng, true
				}
			}
			return Rng{}, false
		}
		if r, ok := env.idx[n.Name]; ok {
			return r, true
		}
		if f.params[n.Name] {
			p := linear.VarExpr(linear.Sym(n.Name))
			return Rng{Lo: pt(p), Hi: pt(p)}, true
		}
		if sf := f.Scalars[n.Name]; sf != nil {
			return sf.Rng, true
		}
		return Rng{}, false
	case *ir.Unary:
		if n.Op != '-' {
			return Rng{}, false
		}
		r, ok := f.rangeOf(n.X, env)
		if !ok {
			return Rng{}, false
		}
		return f.negRng(r), true
	case *ir.Bin:
		l, ok1 := f.rangeOf(n.L, env)
		r, ok2 := f.rangeOf(n.R, env)
		if !ok1 || !ok2 {
			return Rng{}, false
		}
		switch n.Op {
		case ir.Add:
			return f.addRng(l, r), true
		case ir.Sub:
			return f.addRng(l, f.negRng(r)), true
		case ir.Mul:
			if c, ok := degenerateConst(l); ok {
				return f.scaleRng(r, c), true
			}
			if c, ok := degenerateConst(r); ok {
				return f.scaleRng(l, c), true
			}
			return Rng{}, true
		}
		// Division is float division in the DSL: not integral.
		return Rng{}, false
	case *ir.Call:
		if len(n.Args) != 2 {
			return Rng{}, false
		}
		l, ok1 := f.rangeOf(n.Args[0], env)
		r, ok2 := f.rangeOf(n.Args[1], env)
		if !ok1 || !ok2 {
			return Rng{}, false
		}
		switch n.Name {
		case "mod":
			return f.modRng(l, r), true
		case "min":
			return f.minRng(l, r), true
		case "max":
			return f.maxRng(l, r), true
		}
		return Rng{}, false
	}
	return Rng{}, false
}

func degenerateConst(r Rng) (int64, bool) {
	if r.Bounded() && r.Lo.Equal(*r.Hi) && r.Lo.IsConstant() {
		return r.Lo.Const, true
	}
	return 0, false
}

// leq reports a <= b provably, for every parameter assignment with all
// parameters >= MinParam. Conservative: false means "unknown".
func (f *Facts) leq(a, b linear.Affine) bool {
	d := b.Sub(a)
	sum := int64(0)
	for _, v := range d.Vars() {
		c := d.Coeff(v)
		if c < 0 {
			return false
		}
		sum += c
	}
	return d.Const+f.MinParam*sum >= 0
}

// constFloor returns a constant lower bound of a (valid for all
// parameters >= MinParam), when one exists.
func (f *Facts) constFloor(a linear.Affine) (int64, bool) {
	sum := int64(0)
	for _, v := range a.Vars() {
		c := a.Coeff(v)
		if c < 0 {
			return 0, false
		}
		sum += c
	}
	return a.Const + f.MinParam*sum, true
}

// constCeil returns a constant upper bound of a, when one exists (all
// coefficients nonpositive).
func (f *Facts) constCeil(a linear.Affine) (int64, bool) {
	sum := int64(0)
	for _, v := range a.Vars() {
		c := a.Coeff(v)
		if c > 0 {
			return 0, false
		}
		sum += c
	}
	return a.Const + f.MinParam*sum, true
}

func (f *Facts) negRng(r Rng) Rng {
	out := Rng{}
	if r.Hi != nil {
		out.Lo = pt(r.Hi.Neg())
	}
	if r.Lo != nil {
		out.Hi = pt(r.Lo.Neg())
	}
	return out
}

func (f *Facts) addRng(a, b Rng) Rng {
	out := Rng{}
	if a.Lo != nil && b.Lo != nil {
		out.Lo = pt(a.Lo.Add(*b.Lo))
	}
	if a.Hi != nil && b.Hi != nil {
		out.Hi = pt(a.Hi.Add(*b.Hi))
	}
	return out
}

func (f *Facts) scaleRng(r Rng, c int64) Rng {
	if c < 0 {
		r = f.negRng(r)
		c = -c
	}
	out := Rng{}
	if r.Lo != nil {
		out.Lo = pt(r.Lo.Scale(c))
	}
	if r.Hi != nil {
		out.Hi = pt(r.Hi.Scale(c))
	}
	return out
}

// modRng: when the modulus is provably positive, mod(x, m) lies in
// [0, m-1] regardless of x (DSL mod is the sign-of-divisor form).
func (f *Facts) modRng(_, m Rng) Rng {
	if m.Lo == nil || !f.leq(linear.NewAffine(1), *m.Lo) {
		return Rng{}
	}
	if m.Hi == nil {
		return Rng{Lo: pt(linear.NewAffine(0))}
	}
	return Rng{Lo: pt(linear.NewAffine(0)), Hi: pt(m.Hi.AddConst(-1))}
}

func (f *Facts) minRng(a, b Rng) Rng {
	out := Rng{}
	// Upper bound: either side's upper bound is valid; prefer the
	// provably smaller, else a parameter-dependent one (constants grow
	// without bound during fixpoint iteration).
	switch {
	case a.Hi != nil && b.Hi != nil:
		switch {
		case f.leq(*a.Hi, *b.Hi):
			out.Hi = a.Hi
		case f.leq(*b.Hi, *a.Hi):
			out.Hi = b.Hi
		case !b.Hi.IsConstant():
			out.Hi = b.Hi
		default:
			out.Hi = a.Hi
		}
	case a.Hi != nil:
		out.Hi = a.Hi
	case b.Hi != nil:
		out.Hi = b.Hi
	}
	// Lower bound: need a value <= both lower bounds.
	if a.Lo != nil && b.Lo != nil {
		switch {
		case f.leq(*a.Lo, *b.Lo):
			out.Lo = a.Lo
		case f.leq(*b.Lo, *a.Lo):
			out.Lo = b.Lo
		default:
			fa, ok1 := f.constFloor(*a.Lo)
			fb, ok2 := f.constFloor(*b.Lo)
			if ok1 && ok2 {
				m := fa
				if fb < m {
					m = fb
				}
				out.Lo = pt(linear.NewAffine(m))
			}
		}
	}
	return out
}

func (f *Facts) maxRng(a, b Rng) Rng {
	return f.negRng(f.minRng(f.negRng(a), f.negRng(b)))
}

// join is the lattice join (interval hull).
func (f *Facts) join(a, b Rng) Rng {
	out := Rng{}
	if a.Lo != nil && b.Lo != nil {
		switch {
		case f.leq(*a.Lo, *b.Lo):
			out.Lo = a.Lo
		case f.leq(*b.Lo, *a.Lo):
			out.Lo = b.Lo
		default:
			fa, ok1 := f.constFloor(*a.Lo)
			fb, ok2 := f.constFloor(*b.Lo)
			if ok1 && ok2 {
				m := fa
				if fb < m {
					m = fb
				}
				out.Lo = pt(linear.NewAffine(m))
			}
		}
	}
	if a.Hi != nil && b.Hi != nil {
		switch {
		case f.leq(*b.Hi, *a.Hi):
			out.Hi = a.Hi
		case f.leq(*a.Hi, *b.Hi):
			out.Hi = b.Hi
		}
	}
	return out
}
