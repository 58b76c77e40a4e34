package compile

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/linear"
)

// Options configure the lowering.
type Options struct {
	// Instrument bakes sanitizer hooks into every shared access and a
	// site-id load into every statement. Instrumented closures require
	// Frame.San (and Frame.Sites) to be bound before execution.
	Instrument bool
}

type (
	// StmtFn executes one statement against a frame.
	StmtFn func(*Frame)
	// IntFn evaluates an integer (index) expression.
	IntFn func(*Frame) int64
	// NumFn evaluates a value expression.
	NumFn func(*Frame) float64
	// BoolFn evaluates a condition.
	BoolFn func(*Frame) bool
	// RangeFn runs one loop over start, start+step, ... up to end (step at
	// least 1). It is the only loop driver: the sequential loop statement,
	// the executor's partitioned slices and its wavefront relay all call it.
	RangeFn func(fr *Frame, start, end, step int64)
)

// Prog is one lowered program: every statement and expression compiled to
// a closure, plus the frame layout the closures index by. A Prog is
// immutable after Compile and safe to share across workers and runs; all
// mutable state lives in per-worker Frames.
type Prog struct {
	prog *ir.Program
	lay  *interp.Layout
	opt  Options

	stmts  map[ir.Stmt]StmtFn
	ranges map[*ir.Loop]RangeFn
	lob    map[*ir.Loop]IntFn
	hib    map[*ir.Loop]IntFn
	// ncur is the number of cursor slots a frame needs.
	ncur int
	// nrow is the number of rowChunk-long temporaries the row forms need; rows
	// holds the sets frames have released, up to 8 (a wider team allocates).
	nrow int
	rows chan *rowScratch
	// nmemo counts the memos a frame keeps, scopes numbers their scopes.
	nmemo  int
	scopes map[*ir.Loop]int
	// ord numbers every statement densely in ir.WalkStmts order; Frame.Sites
	// is indexed by it.
	ord map[ir.Stmt]int
}

// Compile lowers prog over the given frame layout (computed fresh when lay
// is nil). Name resolution, operand typing and subscript arity are checked
// here, so lowering a program that the reference interpreter would reject
// at runtime fails up front with a positioned error.
func Compile(prog *ir.Program, lay *interp.Layout, opt Options) (*Prog, error) {
	if lay == nil {
		lay = interp.NewLayout(prog)
	}
	p := &Prog{
		prog:   prog,
		lay:    lay,
		opt:    opt,
		stmts:  map[ir.Stmt]StmtFn{},
		ranges: map[*ir.Loop]RangeFn{},
		lob:    map[*ir.Loop]IntFn{},
		hib:    map[*ir.Loop]IntFn{},
		ord:    map[ir.Stmt]int{},
		rows:   make(chan *rowScratch, 8),
		scopes: map[*ir.Loop]int{},
	}
	ir.WalkStmts(prog.Body, func(s ir.Stmt) bool {
		p.ord[s] = len(p.ord)
		return true
	})
	c := &cc{p: p, scope: map[string]bool{}, env: ir.NewAffineEnv(prog)}
	for _, s := range prog.Body {
		if _, err := c.stmt(s); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Source returns the program the closures were lowered from.
func (p *Prog) Source() *ir.Program { return p.prog }

// Layout returns the frame layout the closures index by.
func (p *Prog) Layout() *interp.Layout { return p.lay }

// Instrumented reports whether sanitizer hooks were baked in.
func (p *Prog) Instrumented() bool { return p.opt.Instrument }

// Stmt returns the closure of one statement (nil for statements of a
// different program).
func (p *Prog) Stmt(s ir.Stmt) StmtFn { return p.stmts[s] }

// Range returns one loop's driver (nil for loops of a different program).
func (p *Prog) Range(l *ir.Loop) RangeFn { return p.ranges[l] }

// Bounds returns the closures of a loop's lower and upper bound.
func (p *Prog) Bounds(l *ir.Loop) (lo, hi IntFn) { return p.lob[l], p.hib[l] }

// Detached lowers expressions the executor evaluates outside any statement —
// the bounds and offsets of an inspector scan. Every loop index counts as
// live (the caller binds the registers it reads), and no sanitizer hook is
// baked in whatever p's own setting: these reads are not accesses of the
// program.
type Detached struct{ c *cc }

// Detached returns a lowering context over p's layout.
func (p *Prog) Detached() Detached {
	q := *p
	q.opt.Instrument = false
	return Detached{&cc{p: &q, scope: ir.LoopIndicesOf(p.prog.Body)}}
}

// Int lowers an integer expression.
func (d Detached) Int(x ir.Expr) (IntFn, error) {
	r, err := d.c.intExpr(x)
	return r.fn, err
}

// Offset lowers an array reference to its array id and flat row-major
// offset; out of range, the closure trips the frame's fault and yields -1.
func (d Detached) Offset(ref *ir.Ref) (id int, off IntFn, err error) {
	return d.c.offsetFn(ref)
}

// Ordinal returns the dense statement number used to index Frame.Sites.
func (p *Prog) Ordinal(s ir.Stmt) (int, bool) {
	o, ok := p.ord[s]
	return o, ok
}

// NumStmts returns the number of statement ordinals.
func (p *Prog) NumStmts() int { return len(p.ord) }

// NewFrame allocates a frame shaped for this program. The caller binds
// Scal/Arrays/Dims to the run's storage and seeds the parameter registers.
func (p *Prog) NewFrame() *Frame {
	return &Frame{
		Regs:   make([]int64, p.lay.NumRegs()),
		Priv:   make([]*float64, p.lay.NumScalars()),
		Arrays: make([][]float64, p.lay.NumArrays()),
		Dims:   make([][]int64, p.lay.NumArrays()),
		Sites:  make([]uint16, len(p.ord)),
		cur:    make([]cursor, p.ncur),
	}
}

// RunSeq executes the whole lowered program sequentially over st — the
// closure analogue of interp.RunOn, used by tests and the throughput
// benchmarks' calibration leg. Scalars are copied through a private vector
// and flushed back on success.
func (p *Prog) RunSeq(st *interp.State) error {
	fr, err := p.seqFrame(st)
	if err != nil {
		return err
	}
	return p.runSeqOn(fr, st)
}

// seqFrame binds a fresh frame to st for sequential execution.
func (p *Prog) seqFrame(st *interp.State) (*Frame, error) {
	fr := p.NewFrame()
	fr.Scal = make([]atomic.Uint64, p.lay.NumScalars())
	for i, s := range p.prog.Scalars {
		fr.Scal[i].Store(math.Float64bits(st.Scalars[s]))
	}
	for i, a := range p.prog.Arrays {
		av := st.Array(a.Name)
		if av == nil {
			return nil, fmt.Errorf("compile: state has no storage for array %s", a.Name)
		}
		fr.Arrays[i], fr.Dims[i] = av.Data, av.Dims
	}
	for _, prm := range p.prog.Params {
		if r, ok := p.lay.ParamReg(prm); ok {
			fr.Regs[r] = st.Params[prm]
		}
	}
	return fr, nil
}

// runSeqOn executes the program over a frame from seqFrame.
func (p *Prog) runSeqOn(fr *Frame, st *interp.State) error {
	for _, s := range p.prog.Body {
		if !fr.Ok() {
			break
		}
		p.stmts[s](fr)
	}
	if err := fr.Err(); err != nil {
		return err
	}
	for i, s := range p.prog.Scalars {
		st.Scalars[s] = math.Float64frombits(fr.Scal[i].Load())
	}
	return nil
}

// cc is the single-pass lowering context. scope tracks which loop indices
// are lexically live, which is what lets name resolution happen once at
// compile time instead of per access.
type cc struct {
	p     *Prog
	scope map[string]bool
	// env resolves names as scope does, for the cursor form's subscripts.
	env *ir.AffineEnv
	// inner is non-nil while an innermost loop's body is lowered a second
	// time in cursor form: array references affine in inner's index then
	// lower to cursors (cursor.go), and the closures are not registered as
	// the statements' own — Prog.Stmt keeps the per-access-checked form.
	inner *plan
	// last is the loop lowered last: the one a loop's body ends with (nest);
	last  *plan
	loops []ir.Stmt // the loops being lowered, outermost first
}

func (c *cc) errf(pos ir.Pos, format string, args ...any) error {
	return fmt.Errorf("compile: %s: %s", pos, fmt.Sprintf(format, args...))
}

// ---- statements ----

func (c *cc) stmt(s ir.Stmt) (StmtFn, error) {
	var fn StmtFn
	var err error
	switch n := s.(type) {
	case *ir.Assign:
		fn, err = c.assign(n)
	case *ir.Loop:
		fn, err = c.loop(n)
	case *ir.If:
		fn, err = c.ifStmt(n)
	default:
		return nil, fmt.Errorf("compile: unhandled statement %T", s)
	}
	if err != nil {
		return nil, err
	}
	if c.p.opt.Instrument {
		// Every instrumented statement loads its tracker site on entry, so
		// shared accesses in its expressions attribute to the right source
		// line (mirrors the interpreter setting env.site per statement).
		ord := c.p.ord[s]
		inner := fn
		fn = func(fr *Frame) {
			fr.sanSite = fr.Sites[ord]
			inner(fr)
		}
	}
	if c.inner == nil {
		c.p.stmts[s] = fn
	}
	return fn, nil
}

func (c *cc) seq(stmts []ir.Stmt) (StmtFn, error) {
	fns := make([]StmtFn, 0, len(stmts))
	for _, s := range stmts {
		f, err := c.stmt(s)
		if err != nil {
			return nil, err
		}
		fns = append(fns, f)
	}
	switch len(fns) {
	case 0:
		return func(*Frame) {}, nil
	case 1:
		return fns[0], nil
	case 2:
		a, b := fns[0], fns[1]
		return func(fr *Frame) {
			a(fr)
			if fr.fault != nil {
				return
			}
			b(fr)
		}, nil
	}
	return func(fr *Frame) {
		for _, f := range fns {
			if fr.fault != nil {
				return
			}
			f(fr)
		}
	}, nil
}

func (c *cc) loop(n *ir.Loop) (StmtFn, error) {
	lo, err := c.intExpr(n.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := c.intExpr(n.Hi)
	if err != nil {
		return nil, err
	}
	reg, ok := c.p.lay.IndexReg(n.Index)
	if !ok {
		return nil, c.errf(n.P, "no register for loop index %s", n.Index)
	}
	outer := c.scope[n.Index]
	c.scope[n.Index] = true
	c.env.Bind(n.Index, linear.Loop(n.Index))
	c.loops = append(c.loops, n)
	defer func() {
		c.loops = c.loops[:len(c.loops)-1]
		if c.scope[n.Index] = outer; !outer {
			// Out of scope the name can only be a parameter's.
			c.env.Bind(n.Index, linear.Sym(n.Index))
		}
	}()
	body, err := c.seq(n.Body)
	if err != nil {
		return nil, err
	}
	pl := &plan{p: c.p, loop: n, reg: reg, outer: -1, fast: body, checked: body, memo: -1}
	if len(c.loops) > 1 {
		pl.outer, _ = c.p.lay.IndexReg(c.loops[len(c.loops)-2].(*ir.Loop).Index)
	}
	if !c.p.opt.Instrument && len(ir.LoopIndicesOf(n.Body)) == 0 {
		// The sanitizer must see every access, so instrumented lowerings
		// keep the per-access form only.
		inner := c.indexGuard(pl, n.Body)
		c.inner = pl
		if pl.fast, err = c.seq(inner); err == nil {
			pl.row = c.rowForm(inner)
		}
		if c.inner = nil; err != nil {
			return nil, err
		}
		var index []string
		for i := 0; pl.row != nil && i < len(pl.row.gathers); i++ {
			index = append(index, pl.ref(pl.row.gathers[i].slot).ref.Name)
		}
		if len(pl.refs) > 0 {
			pl.memo, pl.scope = c.memoScope(n.Body, index, n.Index)
		}
	}
	rng := c.nest(n, reg, pl.rangeFn())
	if _, ok := c.p.scopes[n]; ok {
		p, drive := c.p, rng
		rng = func(fr *Frame, start, end, step int64) {
			p.Enter(fr, n)
			drive(fr, start, end, step)
		}
	}
	c.p.ranges[n], c.last = rng, pl
	c.p.lob[n], c.p.hib[n] = lo.fn, hi.fn
	loF, hiF := lo.fn, hi.fn
	return func(fr *Frame) { rng(fr, loF(fr), hiF(fr), 1) }, nil
}

// nest returns the driver of a nest's plan, loop n with index register reg,
// if n's body is assignments, run per row as they are lowered, and then one
// loop m (lowered last) with cursors, another index and no guard. m's bounds
// are one box for every row if affine in neither index; otherwise they vary,
// and must read no array n's body stores, so that what they yield in a row is
// fixed before any row runs (an integer expression reads no scalar, and m
// writes no register they read: a validated program has no live index of m's
// name), and an entry's rows get a memo if memoScope finds a scope. Otherwise
// nest returns rng, the driver of n's own plan.
func (c *cc) nest(n *ir.Loop, reg int, rng RangeFn) RangeFn {
	in, k := c.last, len(n.Body)-1
	if k < 0 || in == nil || n.Body[k] != in.loop || len(in.refs) == 0 || in.reg == reg || in.guard != nil {
		return rng
	}
	np, ok, arrays, w := *in, true, []string(nil), ir.WritesOf(n.Body)
	np.pre, np.lo, np.hi, np.perRow = make([]StmtFn, k), c.p.lob[in.loop], c.p.hib[in.loop], rng
	for i, s := range n.Body[:k] {
		_, isAssign := s.(*ir.Assign)
		ok, np.pre[i] = ok && isAssign, c.p.stmts[s]
	}
	for _, x := range []ir.Expr{in.loop.Lo, in.loop.Hi} {
		a, affine := c.env.Affine(x) // an affine bound reads no array
		np.vary = np.vary || !affine || a.Coeff(linear.Loop(n.Index)) != 0
		ir.WalkExprs(x, func(x ir.Expr) {
			if r, isRef := x.(*ir.Ref); isRef && r.IsArray() {
				arrays, ok = append(arrays, r.Name), ok && !w[r.Name]
			}
		})
	}
	if !ok {
		return rng
	}
	in.memo, np.memo = -1, -1 // its cursors are the nest's too
	if np.vary {
		np.memo, np.scope = c.memoScope([]ir.Stmt{in.loop}, arrays, n.Index, in.loop.Index)
	}
	return np.rangeFn()
}

// memoWrites is ir.WritesOf; a test swaps in one that misses stores.
var memoWrites = ir.WritesOf

// memoScope gives a memo to the entries of the loop being lowered, which
// decide from the arrays in arrays and from what body reads but the indices
// own: it returns the memo's number and the id of its scope S, the outermost
// enclosing loop in which, S included, no loop writes an index that body reads
// and no assignment stores one of arrays — or -1, -1. While one execution of S
// lasts, such an entry decides as a function of its start, end and step.
func (c *cc) memoScope(body []ir.Stmt, arrays []string, own ...string) (memo, scope int) {
	reads, at := ir.ReadsOf(body), -1
	for _, name := range own {
		delete(reads, name)
	}
	for i := len(c.loops) - 2; i >= 0; i-- {
		clear, w := true, memoWrites(c.loops[i:i+1])
		for name := range ir.LoopIndicesOf(c.loops[i : i+1]) {
			clear = clear && !reads[name]
		}
		if !clear || slices.ContainsFunc(arrays, func(a string) bool { return w[a] }) {
			break
		}
		at = i
	}
	if at < 0 {
		return -1, -1
	}
	l := c.loops[at].(*ir.Loop)
	if _, known := c.p.scopes[l]; !known {
		c.p.scopes[l] = len(c.p.scopes)
	}
	c.p.nmemo++
	return c.p.nmemo - 1, c.p.scopes[l]
}

// Enter is what an entry of loop l runs first where the executor's steps
// drive l (StepSeq) rather than its RangeFn, which runs it too: if l scopes
// memos (cc.memoScope), those its last execution took lapse.
func (p *Prog) Enter(fr *Frame, l *ir.Loop) {
	if id, ok := p.scopes[l]; ok && fr.scr != nil {
		fr.scr.gen[id]++
	}
}

func (c *cc) ifStmt(n *ir.If) (StmtFn, error) {
	cond, err := c.boolExpr(n.Cond)
	if err != nil {
		return nil, err
	}
	thn, err := c.seq(n.Then)
	if err != nil {
		return nil, err
	}
	els, err := c.seq(n.Else)
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) {
		if cond(fr) {
			thn(fr)
		} else {
			els(fr)
		}
	}, nil
}

func (c *cc) assign(n *ir.Assign) (StmtFn, error) {
	rhs, err := c.numExpr(n.RHS)
	if err != nil {
		return nil, err
	}
	rhsF := rhs.fn
	lhs := n.LHS
	if lhs.IsArray() {
		if slot, ok := c.cursor(lhs); ok {
			reg := c.inner.reg
			return func(fr *Frame) {
				v := rhsF(fr)
				cu := &fr.cur[slot]
				cu.data[cu.base+fr.Regs[reg]*cu.stride] = v
			}, nil
		}
		if g, ok := c.gather(lhs); ok {
			return func(fr *Frame) {
				v := rhsF(fr)
				cu := &fr.cur[g.slot]
				ix := cu.data[cu.base+fr.Regs[g.reg]*cu.stride]
				if off := gatherOff(fr, ix, g.id, g.nonInt, g.bounds); off >= 0 {
					fr.Arrays[g.id][off] = v
				}
			}, nil
		}
		id, offF, err := c.offsetFn(lhs)
		if err != nil {
			return nil, err
		}
		if c.p.opt.Instrument {
			name := lhs.Name
			return func(fr *Frame) {
				v := rhsF(fr)
				off := offF(fr)
				if off < 0 {
					return
				}
				fr.San.Write(fr.SanW, name, off, fr.sanSite, fr.SanRepl)
				fr.Arrays[id][off] = v
			}, nil
		}
		return func(fr *Frame) {
			v := rhsF(fr)
			off := offF(fr)
			if off < 0 {
				return
			}
			fr.Arrays[id][off] = v
		}, nil
	}
	slot, ok := c.p.lay.ScalarSlot(lhs.Name)
	if !ok {
		return nil, c.errf(lhs.P, "assignment to unknown scalar %s", lhs.Name)
	}
	if c.p.opt.Instrument {
		name := lhs.Name
		return func(fr *Frame) {
			v := rhsF(fr)
			if cell := fr.Priv[slot]; cell != nil {
				*cell = v
				return
			}
			fr.San.Write(fr.SanW, name, 0, fr.sanSite, fr.SanRepl)
			fr.Scal[slot].Store(math.Float64bits(v))
		}, nil
	}
	return func(fr *Frame) {
		v := rhsF(fr)
		if cell := fr.Priv[slot]; cell != nil {
			*cell = v
			return
		}
		fr.Scal[slot].Store(math.Float64bits(v))
	}, nil
}

// ---- integer expressions ----

// intRes carries a lowered integer expression plus constant information so
// the common subscript shapes (i, i±c, c) lower to minimal closures.
type intRes struct {
	fn      IntFn
	isConst bool
	cv      int64
}

func constInt(v int64) intRes {
	return intRes{fn: func(*Frame) int64 { return v }, isConst: true, cv: v}
}

func (c *cc) intExpr(x ir.Expr) (intRes, error) {
	switch n := x.(type) {
	case *ir.Num:
		if !n.IsInt {
			return intRes{}, c.errf(n.P, "float literal %v in integer context", n.Val)
		}
		return constInt(n.Int), nil
	case *ir.Ref:
		if n.IsArray() {
			return c.intArrayRead(n)
		}
		if c.scope[n.Name] {
			reg, _ := c.p.lay.IndexReg(n.Name)
			return intRes{fn: func(fr *Frame) int64 { return fr.Regs[reg] }}, nil
		}
		if reg, ok := c.p.lay.ParamReg(n.Name); ok {
			return intRes{fn: func(fr *Frame) int64 { return fr.Regs[reg] }}, nil
		}
		return intRes{}, c.errf(n.P, "%s is not an integer parameter or loop index", n.Name)
	case *ir.Unary:
		if n.Op != '-' {
			return intRes{}, c.errf(n.P, "logical operator in integer context")
		}
		x, err := c.intExpr(n.X)
		if err != nil {
			return intRes{}, err
		}
		if x.isConst {
			return constInt(-x.cv), nil
		}
		xf := x.fn
		return intRes{fn: func(fr *Frame) int64 { return -xf(fr) }}, nil
	case *ir.Bin:
		return c.intBin(n)
	case *ir.Call:
		switch n.Name {
		case "mod", "min", "max":
		default:
			return intRes{}, c.errf(n.P, "intrinsic %s in integer context", n.Name)
		}
		if len(n.Args) != 2 {
			return intRes{}, c.errf(n.P, "%s expects 2 arguments, got %d", n.Name, len(n.Args))
		}
		l, err := c.intExpr(n.Args[0])
		if err != nil {
			return intRes{}, err
		}
		r, err := c.intExpr(n.Args[1])
		if err != nil {
			return intRes{}, err
		}
		lf, rf := l.fn, r.fn
		switch n.Name {
		case "min":
			if l.isConst && r.isConst {
				return constInt(min(l.cv, r.cv)), nil
			}
			return intRes{fn: func(fr *Frame) int64 { return min(lf(fr), rf(fr)) }}, nil
		case "max":
			if l.isConst && r.isConst {
				return constInt(max(l.cv, r.cv)), nil
			}
			return intRes{fn: func(fr *Frame) int64 { return max(lf(fr), rf(fr)) }}, nil
		}
		if l.isConst && r.isConst && r.cv != 0 {
			return constInt(floorMod(l.cv, r.cv)), nil
		}
		f := modFault(n.P)
		return intRes{fn: func(fr *Frame) int64 {
			lv, rv := lf(fr), rf(fr)
			if rv == 0 {
				fr.trip(f, 0)
				return 0
			}
			return floorMod(lv, rv)
		}}, nil
	default:
		return intRes{}, fmt.Errorf("compile: unhandled integer expression %T", x)
	}
}

// intArrayRead lowers an indirect access — an index-array element used
// in integer context (subscript or loop bound). The element must hold
// an exact integer; anything else trips a fault. (A bounds fault in the
// read itself yields 0, which converts without a second fault.)
func (c *cc) intArrayRead(n *ir.Ref) (intRes, error) {
	rd, err := c.arrayRead(n)
	if err != nil {
		return intRes{}, err
	}
	rf := rd.fn
	f := nonIntFault(n.Name, n.P)
	return intRes{fn: func(fr *Frame) int64 {
		v := rf(fr)
		iv := int64(v)
		if float64(iv) != v {
			fr.trip(f, int64(math.Float64bits(v)))
			return 0
		}
		return iv
	}}, nil
}

func (c *cc) intBin(n *ir.Bin) (intRes, error) {
	l, err := c.intExpr(n.L)
	if err != nil {
		return intRes{}, err
	}
	r, err := c.intExpr(n.R)
	if err != nil {
		return intRes{}, err
	}
	lf, rf := l.fn, r.fn
	switch n.Op {
	case ir.Add:
		switch {
		case l.isConst && r.isConst:
			return constInt(l.cv + r.cv), nil
		case r.isConst:
			cv := r.cv
			return intRes{fn: func(fr *Frame) int64 { return lf(fr) + cv }}, nil
		case l.isConst:
			cv := l.cv
			return intRes{fn: func(fr *Frame) int64 { return cv + rf(fr) }}, nil
		}
		return intRes{fn: func(fr *Frame) int64 { return lf(fr) + rf(fr) }}, nil
	case ir.Sub:
		switch {
		case l.isConst && r.isConst:
			return constInt(l.cv - r.cv), nil
		case r.isConst:
			cv := r.cv
			return intRes{fn: func(fr *Frame) int64 { return lf(fr) - cv }}, nil
		case l.isConst:
			cv := l.cv
			return intRes{fn: func(fr *Frame) int64 { return cv - rf(fr) }}, nil
		}
		return intRes{fn: func(fr *Frame) int64 { return lf(fr) - rf(fr) }}, nil
	case ir.Mul:
		switch {
		case l.isConst && r.isConst:
			return constInt(l.cv * r.cv), nil
		case r.isConst:
			cv := r.cv
			return intRes{fn: func(fr *Frame) int64 { return lf(fr) * cv }}, nil
		case l.isConst:
			cv := l.cv
			return intRes{fn: func(fr *Frame) int64 { return cv * rf(fr) }}, nil
		}
		return intRes{fn: func(fr *Frame) int64 { return lf(fr) * rf(fr) }}, nil
	case ir.Div:
		if l.isConst && r.isConst && r.cv != 0 {
			return constInt(floorDiv(l.cv, r.cv)), nil
		}
		f := divFault(n.P)
		return intRes{fn: func(fr *Frame) int64 {
			lv, rv := lf(fr), rf(fr)
			if rv == 0 {
				fr.trip(f, 0)
				return 0
			}
			return floorDiv(lv, rv)
		}}, nil
	default:
		return intRes{}, c.errf(n.P, "operator %s in integer context", n.Op)
	}
}

// floorDiv matches the affine machinery (and the interpreter): quotient
// rounded toward negative infinity.
func floorDiv(l, r int64) int64 {
	q := l / r
	if l%r != 0 && (l < 0) != (r < 0) {
		q--
	}
	return q
}

func floorMod(l, r int64) int64 {
	m := l % r
	if m != 0 && (m < 0) != (r < 0) {
		m += r
	}
	return m
}

// ---- value expressions ----

type numRes struct {
	fn      NumFn
	isConst bool
	cv      float64
}

func constNum(v float64) numRes {
	return numRes{fn: func(*Frame) float64 { return v }, isConst: true, cv: v}
}

func (c *cc) numExpr(x ir.Expr) (numRes, error) {
	switch n := x.(type) {
	case *ir.Num:
		return constNum(n.Val), nil
	case *ir.Ref:
		if n.IsArray() {
			return c.arrayRead(n)
		}
		return c.scalarRead(n.Name, n.P)
	case *ir.Unary:
		if n.Op == '-' {
			x, err := c.numExpr(n.X)
			if err != nil {
				return numRes{}, err
			}
			if x.isConst {
				return constNum(-x.cv), nil
			}
			xf := x.fn
			return numRes{fn: func(fr *Frame) float64 { return -xf(fr) }}, nil
		}
		bf, err := c.boolExpr(n.X)
		if err != nil {
			return numRes{}, err
		}
		return numRes{fn: func(fr *Frame) float64 {
			if bf(fr) {
				return 0
			}
			return 1
		}}, nil
	case *ir.Bin:
		if n.Op.IsCompare() || n.Op == ir.AndOp || n.Op == ir.OrOp {
			bf, err := c.boolExpr(n)
			if err != nil {
				return numRes{}, err
			}
			return numRes{fn: func(fr *Frame) float64 {
				if bf(fr) {
					return 1
				}
				return 0
			}}, nil
		}
		return c.numBin(n)
	case *ir.Call:
		return c.call(n)
	default:
		return numRes{}, fmt.Errorf("compile: unhandled expression %T", x)
	}
}

func (c *cc) numBin(n *ir.Bin) (numRes, error) {
	l, err := c.numExpr(n.L)
	if err != nil {
		return numRes{}, err
	}
	r, err := c.numExpr(n.R)
	if err != nil {
		return numRes{}, err
	}
	lf, rf := l.fn, r.fn
	switch n.Op {
	case ir.Add:
		switch {
		case l.isConst && r.isConst:
			return constNum(l.cv + r.cv), nil
		case r.isConst:
			cv := r.cv
			return numRes{fn: func(fr *Frame) float64 { return lf(fr) + cv }}, nil
		case l.isConst:
			cv := l.cv
			return numRes{fn: func(fr *Frame) float64 { return cv + rf(fr) }}, nil
		}
		return numRes{fn: func(fr *Frame) float64 { return lf(fr) + rf(fr) }}, nil
	case ir.Sub:
		switch {
		case l.isConst && r.isConst:
			return constNum(l.cv - r.cv), nil
		case r.isConst:
			cv := r.cv
			return numRes{fn: func(fr *Frame) float64 { return lf(fr) - cv }}, nil
		case l.isConst:
			cv := l.cv
			return numRes{fn: func(fr *Frame) float64 { return cv - rf(fr) }}, nil
		}
		return numRes{fn: func(fr *Frame) float64 { return lf(fr) - rf(fr) }}, nil
	case ir.Mul:
		switch {
		case l.isConst && r.isConst:
			return constNum(l.cv * r.cv), nil
		case r.isConst:
			cv := r.cv
			return numRes{fn: func(fr *Frame) float64 { return lf(fr) * cv }}, nil
		case l.isConst:
			cv := l.cv
			return numRes{fn: func(fr *Frame) float64 { return cv * rf(fr) }}, nil
		}
		return numRes{fn: func(fr *Frame) float64 { return lf(fr) * rf(fr) }}, nil
	case ir.Div:
		// Float division by zero yields Inf/NaN, as in the interpreter.
		switch {
		case l.isConst && r.isConst:
			return constNum(l.cv / r.cv), nil
		case r.isConst:
			cv := r.cv
			return numRes{fn: func(fr *Frame) float64 { return lf(fr) / cv }}, nil
		case l.isConst:
			cv := l.cv
			return numRes{fn: func(fr *Frame) float64 { return cv / rf(fr) }}, nil
		}
		return numRes{fn: func(fr *Frame) float64 { return lf(fr) / rf(fr) }}, nil
	default:
		return numRes{}, c.errf(n.P, "unhandled operator %s", n.Op)
	}
}

// The pure intrinsics, of one argument and of two.
var (
	intrinsic1 = map[string]func(float64) float64{
		"sqrt": math.Sqrt, "abs": math.Abs, "exp": math.Exp, "log": math.Log, "sin": math.Sin, "cos": math.Cos}
	intrinsic2 = map[string]func(float64, float64) float64{
		"min": math.Min, "max": math.Max, "pow": math.Pow, "mod": math.Mod}
)

func (c *cc) call(n *ir.Call) (numRes, error) {
	f1, f2 := intrinsic1[n.Name], intrinsic2[n.Name]
	if f1 == nil && f2 == nil {
		return numRes{}, c.errf(n.P, "unknown intrinsic %s", n.Name)
	}
	if f1 != nil {
		if len(n.Args) != 1 {
			return numRes{}, c.errf(n.P, "%s expects 1 argument, got %d", n.Name, len(n.Args))
		}
		a, err := c.numExpr(n.Args[0])
		if err != nil {
			return numRes{}, err
		}
		if a.isConst {
			return constNum(f1(a.cv)), nil
		}
		af := a.fn
		return numRes{fn: func(fr *Frame) float64 { return f1(af(fr)) }}, nil
	}
	if len(n.Args) != 2 {
		return numRes{}, c.errf(n.P, "%s expects 2 arguments, got %d", n.Name, len(n.Args))
	}
	if n.Name == "mod" {
		if r, ok := c.intMod(n.Args[0], n.Args[1]); ok {
			return r, nil
		}
	}
	a, err := c.numExpr(n.Args[0])
	if err != nil {
		return numRes{}, err
	}
	b, err := c.numExpr(n.Args[1])
	if err != nil {
		return numRes{}, err
	}
	if a.isConst && b.isConst {
		return constNum(f2(a.cv, b.cv)), nil
	}
	af, bf := a.fn, b.fn
	return numRes{fn: func(fr *Frame) float64 { return f2(af(fr), bf(fr)) }}, nil
}

// intMod lowers mod(x, y) to int64 arithmetic when each operand is an
// integer literal, a live loop index or a parameter and they are not both
// literals (those fold below).
func (c *cc) intMod(x, y ir.Expr) (numRes, bool) {
	if !intLeaf(x) || !intLeaf(y) {
		return numRes{}, false
	}
	l, lerr := c.intExpr(x) // fails on a float literal and on a scalar
	r, rerr := c.intExpr(y)
	if lerr != nil || rerr != nil || l.isConst && r.isConst {
		return numRes{}, false
	}
	lf, rf := l.fn, r.fn
	return numRes{fn: func(fr *Frame) float64 { return modInt(lf(fr), rf(fr)) }}, true
}

func intLeaf(x ir.Expr) bool {
	ref, isRef := x.(*ir.Ref)
	_, isNum := x.(*ir.Num)
	return isNum || isRef && !ref.IsArray()
}

// modInt is math.Mod(float64(x), float64(y)) bit for bit. While y is not zero
// and neither magnitude exceeds 2^53 the operands convert exactly and the
// remainders agree: both take x's sign, and a zero one of a negative x is -0.
func modInt(x, y int64) float64 {
	if y == 0 || x > exact || x < -exact || y > exact || y < -exact {
		return math.Mod(float64(x), float64(y))
	}
	m := x % y
	if m == 0 && x < 0 {
		return math.Copysign(0, -1)
	}
	return float64(m)
}

// scalarRead resolves a bare name: lexically-live loop index, then
// parameter, then declared scalar (worker-private cell when redirected,
// shared atomic slot otherwise) — the same order the interpreter probes
// its maps in, decided once here instead of per access.
func (c *cc) scalarRead(name string, pos ir.Pos) (numRes, error) {
	if c.scope[name] {
		reg, _ := c.p.lay.IndexReg(name)
		return numRes{fn: func(fr *Frame) float64 { return float64(fr.Regs[reg]) }}, nil
	}
	if reg, ok := c.p.lay.ParamReg(name); ok {
		return numRes{fn: func(fr *Frame) float64 { return float64(fr.Regs[reg]) }}, nil
	}
	slot, ok := c.p.lay.ScalarSlot(name)
	if !ok {
		return numRes{}, c.errf(pos, "unknown name %s", name)
	}
	if c.p.opt.Instrument {
		return numRes{fn: func(fr *Frame) float64 {
			if cell := fr.Priv[slot]; cell != nil {
				return *cell
			}
			fr.San.Read(fr.SanW, name, 0, fr.sanSite)
			return math.Float64frombits(fr.Scal[slot].Load())
		}}, nil
	}
	return numRes{fn: func(fr *Frame) float64 {
		if cell := fr.Priv[slot]; cell != nil {
			return *cell
		}
		return math.Float64frombits(fr.Scal[slot].Load())
	}}, nil
}

func (c *cc) arrayRead(n *ir.Ref) (numRes, error) {
	if slot, ok := c.cursor(n); ok {
		reg := c.inner.reg
		return numRes{fn: func(fr *Frame) float64 {
			cu := &fr.cur[slot]
			return cu.data[cu.base+fr.Regs[reg]*cu.stride]
		}}, nil
	}
	if g, ok := c.gather(n); ok {
		return numRes{fn: func(fr *Frame) float64 {
			cu := &fr.cur[g.slot]
			ix := cu.data[cu.base+fr.Regs[g.reg]*cu.stride]
			if off := gatherOff(fr, ix, g.id, g.nonInt, g.bounds); off >= 0 {
				return fr.Arrays[g.id][off]
			}
			return 0
		}}, nil
	}
	id, offF, err := c.offsetFn(n)
	if err != nil {
		return numRes{}, err
	}
	if c.p.opt.Instrument {
		name := n.Name
		return numRes{fn: func(fr *Frame) float64 {
			off := offF(fr)
			if off < 0 {
				return 0
			}
			fr.San.Read(fr.SanW, name, off, fr.sanSite)
			return fr.Arrays[id][off]
		}}, nil
	}
	return numRes{fn: func(fr *Frame) float64 {
		off := offF(fr)
		if off < 0 {
			return 0
		}
		return fr.Arrays[id][off]
	}}, nil
}

// offsetFn lowers an array reference's subscripts into a flat row-major
// offset closure. Subscripts are 1-based; a bounds violation trips the
// frame's fault slot and yields -1 (loads then produce 0 and stores are
// skipped — the run fails at the next boundary check). When several faults
// coincide in one access the one recorded may differ from the error the
// interpreter reports first; both backends still fail.
func (c *cc) offsetFn(n *ir.Ref) (int, func(*Frame) int64, error) {
	id, ok := c.p.lay.ArrayID(n.Name)
	if !ok {
		return 0, nil, c.errf(n.P, "unknown array %s", n.Name)
	}
	decl := c.p.prog.Array(n.Name)
	if decl != nil && decl.Rank() != len(n.Subs) {
		return 0, nil, c.errf(n.P, "array %s: %d subscripts for rank %d",
			n.Name, len(n.Subs), decl.Rank())
	}
	subs := make([]IntFn, len(n.Subs))
	faults := make([]*Fault, len(n.Subs))
	for k, sx := range n.Subs {
		r, err := c.intExpr(sx)
		if err != nil {
			return 0, nil, err
		}
		subs[k] = r.fn
		faults[k] = boundsFault(n.Name, k+1, n.P)
	}
	if len(subs) == 1 {
		if ix, ok := n.Subs[0].(*ir.Ref); ok && ix.IsArray() {
			// An indirect access A(IDX(..)): the element read (instrumented
			// like any read) feeds the shared check sequence.
			rd, err := c.arrayRead(ix)
			if err != nil {
				return 0, nil, err
			}
			rf, fi, fb := rd.fn, nonIntFault(ix.Name, ix.P), faults[0]
			return id, func(fr *Frame) int64 { return gatherOff(fr, rf(fr), id, fi, fb) }, nil
		}
		s0, f0 := subs[0], faults[0]
		return id, func(fr *Frame) int64 {
			s := s0(fr)
			if uint64(s-1) >= uint64(fr.Dims[id][0]) {
				fr.trip(f0, s)
				return -1
			}
			return s - 1
		}, nil
	}
	return id, func(fr *Frame) int64 {
		d := fr.Dims[id]
		off := int64(0)
		for k, sf := range subs {
			s := sf(fr)
			if uint64(s-1) >= uint64(d[k]) {
				fr.trip(faults[k], s)
				return -1
			}
			off = off*d[k] + (s - 1)
		}
		return off
	}, nil
}

// ---- conditions ----

func (c *cc) boolExpr(x ir.Expr) (BoolFn, error) {
	switch n := x.(type) {
	case *ir.Bin:
		switch n.Op {
		case ir.AndOp:
			lf, err := c.boolExpr(n.L)
			if err != nil {
				return nil, err
			}
			rf, err := c.boolExpr(n.R)
			if err != nil {
				return nil, err
			}
			return func(fr *Frame) bool { return lf(fr) && rf(fr) }, nil
		case ir.OrOp:
			lf, err := c.boolExpr(n.L)
			if err != nil {
				return nil, err
			}
			rf, err := c.boolExpr(n.R)
			if err != nil {
				return nil, err
			}
			return func(fr *Frame) bool { return lf(fr) || rf(fr) }, nil
		case ir.EqOp, ir.NeOp, ir.LtOp, ir.LeOp, ir.GtOp, ir.GeOp:
			l, err := c.numExpr(n.L)
			if err != nil {
				return nil, err
			}
			r, err := c.numExpr(n.R)
			if err != nil {
				return nil, err
			}
			lf, rf := l.fn, r.fn
			switch n.Op {
			case ir.EqOp:
				return func(fr *Frame) bool { return lf(fr) == rf(fr) }, nil
			case ir.NeOp:
				return func(fr *Frame) bool { return lf(fr) != rf(fr) }, nil
			case ir.LtOp:
				return func(fr *Frame) bool { return lf(fr) < rf(fr) }, nil
			case ir.LeOp:
				return func(fr *Frame) bool { return lf(fr) <= rf(fr) }, nil
			case ir.GtOp:
				return func(fr *Frame) bool { return lf(fr) > rf(fr) }, nil
			default:
				return func(fr *Frame) bool { return lf(fr) >= rf(fr) }, nil
			}
		}
	case *ir.Unary:
		if n.Op == '!' {
			bf, err := c.boolExpr(n.X)
			if err != nil {
				return nil, err
			}
			return func(fr *Frame) bool { return !bf(fr) }, nil
		}
	}
	v, err := c.numExpr(x)
	if err != nil {
		return nil, err
	}
	vf := v.fn
	return func(fr *Frame) bool { return vf(fr) != 0 }, nil
}
