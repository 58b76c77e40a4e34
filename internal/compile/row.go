package compile

import (
	"math"
	"slices"

	"repro/internal/ir"
)

// Row form (docs/INTERNALS.md §11). A loop with a cursor form whose body is
// only assignments, their right-hand sides built from literals, cursor reads,
// gathers A(IDX(i)), names the body does not assign, unary minus, + - * / and
// the pure intrinsics, is lowered a third time: each expression node
// evaluates a chunk of iterations in one loop over slices, a statement at a
// time. Nothing in that grammar can fault once an entry has checked its index
// elements, and every operation sees the operands, in the positions, of the
// scalar form; only the order of accesses of different iterations changes,
// and an entry takes the form when its cursors and index elements show that
// this order cannot matter (legal).

// rowChunk is the number of iterations a node evaluates per call. Sizes from
// 64 to 1024 read alike (dotchain N=262144, whose rows outrun them all, best
// of 5, M assigns/s: 32: 413, 64: 512, 128: 505, 256: 542, 512: 511, 1024:
// 577; 128 against 256 paired 30 times: unresolved on four programs), so the
// smallest of them: a cold request allocates its temporaries, 1 KB a piece.
const rowChunk = 128

// rowGatherMin is the shortest entry a body with gathers runs in row form:
// below it the index pass and a call per node cost more than they save (with
// every entry in row form spmvcsr, two-iteration rows, ran 20 % slower, 5/5).
const rowGatherMin = 8

// rowScratch is what a frame's row entries work in: nrow chunks of
// temporaries, a stamp per array element for gatherRef.check, the deltas
// of a nest's cursors and the bounds of its rows (forms.block), and the
// loops' memos, with the entries of each memo scope so far (Prog.Enter).
type rowScratch struct {
	row          []float64
	stamp        []uint64
	delta, bound []int64
	epoch        uint64
	memo         []memo
	gen          []uint64
}

// rowOp is an operand: a node, whose fn evaluates it into dst for len(dst)
// iterations from the entry's j0-th; an expression with one value for the
// whole entry, read once per chunk through its scalar closure inv; or else
// the cursor in slot.
type rowOp struct {
	fn   func(fr *Frame, j0 int64, dst []float64)
	inv  NumFn
	slot int
}

// vec returns the operand over one chunk: a unit-stride cursor as a subslice
// of its array, so that loops over it carry no bounds check; anything else
// evaluated, broadcast or gathered into buf.
func (o rowOp) vec(fr *Frame, j0 int64, buf []float64) []float64 {
	switch {
	case o.fn != nil:
		o.fn(fr, j0, buf)
	case o.inv != nil:
		s := o.inv(fr)
		for i := range buf {
			buf[i] = s
		}
	default:
		cu := &fr.cur[o.slot]
		off := cu.base + j0*cu.stride
		if cu.stride == 1 {
			return cu.data[off : off+int64(len(buf))]
		}
		for i := range buf {
			buf[i] = cu.data[off]
			off += cu.stride
		}
	}
	return buf
}

// rowExpr lowers x as an operand; ok is false outside the grammar. A node's
// value goes where its parent says — a left operand into the parent's own
// destination, a right one into temporary t, which the left one is done with
// by then — so the node may use the temporaries from t up.
func (c *cc) rowExpr(x ir.Expr, t int) (op rowOp, ok bool) {
	var args []ir.Expr
	kind, call := ir.BinKind(-1), (func(x, y float64) float64)(nil)
	switch n := x.(type) {
	case *ir.Num:
		ok = true
	case *ir.Ref:
		if g, isGather := c.gather(n); isGather { // rowForm has applied the gathers' rules
			return rowOp{fn: func(fr *Frame, j0 int64, dst []float64) {
				cu, a := fr.cur[g.slot], fr.Arrays[g.id]
				for j := range dst {
					dst[j] = a[int64(cu.data[cu.base+(j0+int64(j))*cu.stride])-1]
				}
			}}, true
		}
		if n.IsArray() {
			if slot, ok := c.cursor(n); !ok || c.inner.ref(slot).moves {
				return rowOp{slot: slot}, ok
			}
		} else if reg, _ := c.p.lay.IndexReg(n.Name); c.scope[n.Name] && reg == c.inner.reg ||
			!c.scope[n.Name] && slices.Contains(c.inner.assigned, n.Name) {
			return op, false
		}
		ok = true
	case *ir.Unary:
		args, ok = []ir.Expr{n.X}, n.Op == '-'
		call = func(x, _ float64) float64 { return -x }
	case *ir.Bin:
		args, ok, kind = []ir.Expr{n.L, n.R}, n.Op <= ir.Div, n.Op
	case *ir.Call:
		f1, f2 := intrinsic1[n.Name], intrinsic2[n.Name] // name and arity: checked by the cursor form
		if args, ok, call = n.Args, true, f2; f1 != nil {
			call = func(x, _ float64) float64 { return f1(x) }
		}
	}
	var ops [2]rowOp
	inv := true
	for i := 0; ok && i < len(args); i++ {
		ops[i], ok = c.rowExpr(args[i], t+i)
		inv = inv && ops[i].inv != nil
	}
	if !ok {
		return op, false
	}
	if inv {
		// No operand moves: the scalar closure gives the one value.
		r, err := c.numExpr(x)
		return rowOp{inv: r.fn}, err == nil
	}
	l, r := ops[0], ops[1]
	var lp rowLoops
	if call != nil {
		lp = callLoops(call)
	} else {
		lp = rowArith[kind]
	}
	c.p.nrow = max(c.p.nrow, t+1)
	// The operand shape picks the loop here, once per node: a scalar on the
	// left, one on the right (a unary node's missing operand reads as 0), or
	// neither.
	switch {
	case l.inv != nil:
		return rowOp{fn: func(fr *Frame, j0 int64, dst []float64) {
			s := l.inv(fr)
			lp.sv(dst, s, r.vec(fr, j0, dst))
		}}, true
	case len(args) == 1 || r.inv != nil:
		return rowOp{fn: func(fr *Frame, j0 int64, dst []float64) {
			a, s := l.vec(fr, j0, dst), 0.0
			if r.inv != nil {
				s = r.inv(fr)
			}
			lp.vs(dst, a, s)
		}}, true
	default:
		return rowOp{fn: func(fr *Frame, j0 int64, dst []float64) {
			lp.vv(dst, l.vec(fr, j0, dst), r.vec(fr, j0, fr.scr.row[t*rowChunk:][:len(dst)]))
		}}, true
	}
}

// rowLoops are d = x op y over one chunk for one operator, a loop per operand
// shape: the scalar s on the left (sv), s on the right (vs), or two vectors
// (vv). d may be a or b itself, never a part of either. These loops are where
// a row entry spends its time, so each operator has its own, with nothing to
// decide per element.
type rowLoops struct {
	sv func(d []float64, s float64, b []float64)
	vs func(d, a []float64, s float64)
	vv func(d, a, b []float64)
}

var rowArith = [...]rowLoops{
	ir.Add: {func(d []float64, s float64, b []float64) {
		for i, y := range b[:len(d)] {
			d[i] = s + y
		}
	}, func(d, a []float64, s float64) {
		for i, x := range a[:len(d)] {
			d[i] = x + s
		}
	}, func(d, a, b []float64) {
		b = b[:len(d)]
		for i, x := range a[:len(d)] {
			d[i] = x + b[i]
		}
	}},
	ir.Sub: {func(d []float64, s float64, b []float64) {
		for i, y := range b[:len(d)] {
			d[i] = s - y
		}
	}, func(d, a []float64, s float64) {
		for i, x := range a[:len(d)] {
			d[i] = x - s
		}
	}, func(d, a, b []float64) {
		b = b[:len(d)]
		for i, x := range a[:len(d)] {
			d[i] = x - b[i]
		}
	}},
	ir.Mul: {func(d []float64, s float64, b []float64) {
		for i, y := range b[:len(d)] {
			d[i] = s * y
		}
	}, func(d, a []float64, s float64) {
		for i, x := range a[:len(d)] {
			d[i] = x * s
		}
	}, func(d, a, b []float64) {
		b = b[:len(d)]
		for i, x := range a[:len(d)] {
			d[i] = x * b[i]
		}
	}},
	ir.Div: {func(d []float64, s float64, b []float64) {
		for i, y := range b[:len(d)] {
			d[i] = s / y
		}
	}, func(d, a []float64, s float64) {
		for i, x := range a[:len(d)] {
			d[i] = x / s
		}
	}, func(d, a, b []float64) {
		b = b[:len(d)]
		for i, x := range a[:len(d)] {
			d[i] = x / b[i]
		}
	}},
}

// callLoops are the rowLoops of an intrinsic or unary minus, f(x, y) per
// element.
func callLoops(f func(x, y float64) float64) rowLoops {
	return rowLoops{func(d []float64, s float64, b []float64) {
		for i, y := range b[:len(d)] {
			d[i] = f(s, y)
		}
	}, func(d, a []float64, s float64) {
		for i, x := range a[:len(d)] {
			d[i] = f(x, s)
		}
	}, func(d, a, b []float64) {
		b = b[:len(d)]
		for i, x := range a[:len(d)] {
			d[i] = f(x, b[i])
		}
	}}
}

// rowBody is the row form of one innermost loop: its assignments, each over
// one chunk, where in the loop's refs its array stores that move are, and
// the gathers its entries check.
type rowBody struct {
	p       *Prog
	stmts   []func(fr *Frame, j0 int64, n int)
	stores  []int
	gathers []gatherRef
}

// gathers applies the row form's rules to body's gathers and returns each
// distinct one, or false: (i) no index array is stored in the loop; (ii) an
// array read through a gather is stored by no cursor and is no reduction
// target; (iii) one stored through a gather has that one scatter and no other
// reference but reads through the same subscript; (iv) every index moves.
// Entries check the rest: the elements in range, distinct if read back.
func (c *cc) gathers(body []ir.Stmt) (checks []gatherRef, ok bool) {
	type use struct {
		stored, plain, index, read bool // by a cursor or reduction; not through a gather; as an index; through a gather
		scatters                   int
		via                        map[string]bool // the subscripts of its gathers and scatters
	}
	uses, keys, names := map[string]*use{}, []string(nil), []string(nil)
	at := func(name string) *use {
		if uses[name] == nil {
			uses[name] = &use{via: map[string]bool{}}
		}
		return uses[name]
	}
	ok = true
	for _, s := range body {
		a := s.(*ir.Assign)
		visit := func(x ir.Expr) {
			n, _ := x.(*ir.Ref)
			if n == nil || !n.IsArray() {
				return
			}
			u, store := at(n.Name), n == a.LHS
			if ix, _ := n.Subs[0].(*ir.Ref); len(n.Subs) != 1 || ix == nil || !ix.IsArray() {
				u.plain, u.stored = true, u.stored || store
			} else if g, isGather := c.gather(n); !isGather || !c.inner.ref(g.slot).moves {
				ok = false
			} else {
				u.via[ir.ExprString(ix)], at(ix.Name).index = true, true
				u.read = u.read || !store
				if store {
					u.scatters++
				}
				if key := ir.ExprString(n); !slices.Contains(keys, key) {
					keys, names, checks = append(keys, key), append(names, n.Name), append(checks, g)
				}
			}
		}
		ir.WalkExprs(a.LHS, visit)
		ir.WalkExprs(a.RHS, visit)
	}
	for _, u := range uses {
		if u.index && (u.stored || u.scatters > 0) || u.read && u.stored ||
			u.scatters > 1 || u.scatters == 1 && (u.plain || len(u.via) > 1) {
			return nil, false
		}
	}
	for i, name := range names {
		checks[i].distinct = uses[name].scatters > 0 && uses[name].read
	}
	return checks, ok
}

// rowForm lowers the body of c.inner in row form, or returns nil when it is
// outside the grammar. It runs after the cursor form, whose references it
// finds memoized.
func (c *cc) rowForm(body []ir.Stmt) *rowBody {
	in, rb := c.inner, &rowBody{p: c.p}
	on := func(slot int) (cursors int) { // of the loop, on the array of the one in slot
		for i := range in.refs {
			if in.refs[i].id == in.ref(slot).id {
				cursors++
			}
		}
		return cursors
	}
	for _, s := range body {
		a, isAssign := s.(*ir.Assign)
		if !isAssign || len(in.refs) == 0 || slices.Contains(in.assigned, a.LHS.Name) {
			return nil // a scalar assigned twice is no reduction
		}
		if !a.LHS.IsArray() {
			in.assigned = append(in.assigned, a.LHS.Name)
		}
	}
	var ok bool
	if rb.gathers, ok = c.gathers(body); !ok {
		return nil
	}
	for _, s := range body {
		a := s.(*ir.Assign)
		g, isGather := c.gather(a.LHS)
		slot, isCur := c.cursor(a.LHS)
		if isGather || isCur && in.ref(slot).moves {
			rhs, ok := c.rowExpr(a.RHS, 1)
			if !ok {
				return nil
			}
			if isGather { // through temporary 0, in iteration order: the last writer wins
				rb.stmts = append(rb.stmts, func(fr *Frame, j0 int64, n int) {
					cu, dst := fr.cur[g.slot], fr.Arrays[g.id]
					for j, v := range rhs.vec(fr, j0, fr.scr.row[:n]) {
						dst[int64(cu.data[cu.base+(j0+int64(j))*cu.stride])-1] = v
					}
				})
				continue
			}
			// With no other reference to the stored array in the loop, a
			// unit-stride store evaluates straight into its destination.
			direct := on(slot) == 1
			rb.stores = append(rb.stores, slot-in.refs[0].slot)
			rb.stmts = append(rb.stmts, func(fr *Frame, j0 int64, n int) {
				cu := &fr.cur[slot]
				off, buf := cu.base+j0*cu.stride, fr.scr.row[:n]
				if direct && cu.stride == 1 {
					buf = cu.data[off : off+int64(n)]
				}
				src := rhs.vec(fr, j0, buf)
				if cu.stride == 1 {
					if &src[0] != &cu.data[off] {
						copy(cu.data[off:off+int64(n)], src)
					}
					return
				}
				for _, v := range src {
					cu.data[off] = v
					off += cu.stride
				}
			})
			continue
		}
		// What does not move must be a reduction X = X + E, X a scalar (no
		// index, no parameter) or an invariant reference that nothing else in
		// the body mentions: E is evaluated a chunk at a time and folded into
		// X in index order, the sequence of additions the scalar form makes.
		sum, isSum := a.RHS.(*ir.Bin)
		sslot, isScalar := c.p.lay.ScalarSlot(a.LHS.Name)
		_, isParam := c.p.lay.ParamReg(a.LHS.Name)
		if !isSum || sum.Op != ir.Add || ir.ExprString(sum.L) != ir.ExprString(a.LHS) ||
			isCur && on(slot) != 2 || !isCur && (!isScalar || isParam || c.scope[a.LHS.Name]) {
			return nil
		}
		x, err := c.numExpr(sum.L)
		e, ok := c.rowExpr(sum.R, 1)
		if !ok || err != nil {
			return nil
		}
		rb.stmts = append(rb.stmts, func(fr *Frame, j0 int64, n int) {
			acc := x.fn(fr)
			for _, v := range e.vec(fr, j0, fr.scr.row[:n]) {
				acc = acc + v
			}
			if isCur {
				fr.cur[slot].data[fr.cur[slot].base] = acc
			} else if cell := fr.Priv[sslot]; cell != nil {
				*cell = acc
			} else {
				fr.Scal[sslot].Store(math.Float64bits(acc))
			}
		})
	}
	return rb
}

// run runs one entry — count iterations from start by step, every cursor of
// refs loaded and range-checked — in row form, unless legal refuses it.
func (rb *rowBody) run(fr *Frame, refs []curRef, start, count, step int64) bool {
	if !rowLegal(rb, fr, refs, start, count, step) {
		return false
	}
	fold(fr, refs, start, step)
	rb.p.scratch(fr)
	rb.chunks(fr, count)
	return true
}

// fold makes the cursors of refs index an entry's iterations from 0: the
// body's chunks do, and only the entry uses the cursors from here on.
func fold(fr *Frame, refs []curRef, start, step int64) {
	for i := range refs {
		cu := &fr.cur[refs[i].slot]
		cu.base += start * cu.stride
		cu.stride *= step
	}
}

// chunks runs the body over count iterations of an entry, its cursors
// folded and its scratch taken, a chunk at a time.
func (rb *rowBody) chunks(fr *Frame, count int64) {
	fr.Rows++
	for j0 := int64(0); j0 < count; j0 += rowChunk {
		n := int(min(rowChunk, count-j0))
		for _, stmt := range rb.stmts {
			stmt(fr, j0, n)
		}
	}
}

// rowLegal is rowBody.legal; a test swaps it to show that the differential
// against the interpreter catches an unsound rule.
var rowLegal = (*rowBody).legal

// legal reports whether no two accesses of different iterations of the
// entry, one of them a store, touch one element; row evaluation keeps the
// order of accesses within an iteration, so nothing else could change a
// value. A store s is clear of another cursor o on its array when (i) they
// agree in base and stride, so meet only within an iteration; (ii) they
// agree in stride and their bases differ by no whole number of strides, or
// by at least count of them; or (iii) their offset spans over the entry are
// disjoint. A store that does not move meets itself and is refused
// (reductions are not in stores: nothing else mentions their target).
// Gathers are checked by value, all their rules leave to check.
func (rb *rowBody) legal(fr *Frame, refs []curRef, start, count, step int64) bool {
	for _, at := range rb.stores {
		s := &fr.cur[refs[at].slot]
		bs, ss := s.base+start*s.stride, s.stride*step
		if ss == 0 {
			return false
		}
		for i := range refs {
			o := &fr.cur[refs[i].slot]
			bo, so := o.base+start*o.stride, o.stride*step
			d, es, eo := bo-bs, bs+(count-1)*ss, bo+(count-1)*so
			if refs[i].id != refs[at].id || ss == so && (d%ss != 0 || d == 0 || d/ss >= count || d/ss <= -count) ||
				max(bs, es) < min(bo, eo) || max(bo, eo) < min(bs, es) {
				continue
			}
			return false
		}
	}
	for i := range rb.gathers {
		if !rb.gathers[i].check(fr, rb.p, start, count, step) {
			return false
		}
	}
	return true
}

// steady reports whether legal answers alike for every row of a nest's outer
// entry (forms.nest): rb has no gathers, and each cursor on a stored array
// moves by the store's delta, so every pair of offsets legal compares, each
// inside the array in every row, shifts together.
func (rb *rowBody) steady(refs []curRef, delta []int64) bool {
	if rb == nil || rb.gathers != nil {
		return false
	}
	for _, at := range rb.stores {
		for i := range refs {
			if refs[i].id == refs[at].id && delta[i] != delta[at] {
				return false
			}
		}
	}
	return true
}

// check reports whether every index element of the entry addresses A
// (gatherIn) and, if distinct, no two one element: stamps, epoch per check.
func (g *gatherRef) check(fr *Frame, p *Prog, start, count, step int64) bool {
	cu, n := fr.cur[g.slot], fr.Dims[g.id][0]
	off, stride := cu.base+start*cu.stride, cu.stride*step
	var s *rowScratch
	if g.distinct {
		if s = p.scratch(fr); int64(len(s.stamp)) < n {
			s.stamp = make([]uint64, n)
		}
		s.epoch++
	}
	for ; count > 0; count, off = count-1, off+stride {
		v := cu.data[off]
		if !gatherIn(v, n) || s != nil && s.stamp[int64(v)-1] == s.epoch {
			return false
		} else if s != nil {
			s.stamp[int64(v)-1] = s.epoch
		}
	}
	return true
}

// scratch returns fr's set of row scratch, handing it one first if it holds
// none: the set a frame released last, or a new one.
func (p *Prog) scratch(fr *Frame) *rowScratch {
	if fr.scr == nil {
		select {
		case fr.scr = <-p.rows:
		default:
			fr.scr = &rowScratch{row: make([]float64, max(p.nrow, 1)*rowChunk), delta: make([]int64, p.ncur),
				memo: make([]memo, p.nmemo), gen: make([]uint64, len(p.scopes))}
		}
	}
	return fr.scr
}

// Release hands the frame's row scratch back for the next frame to take; the
// executor calls it when a worker's body ends, so runs allocate none. Its
// memos end with the run (a key never has step 0); their storage stays.
func (p *Prog) Release(fr *Frame) {
	if fr.scr != nil {
		for i, m := range fr.scr.memo {
			fr.scr.memo[i] = memo{bound: m.bound[:0]}
		}
		select {
		case p.rows <- fr.scr:
		default:
		}
		fr.scr = nil
	}
}
