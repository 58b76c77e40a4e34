package compile

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/linear"
)

// Cursors. Inside a loop whose body contains no loop, an array reference
// whose every subscript is affine (literals, parameters and live loop
// indices under +, - and * by a constant: ir.AffineEnv's grammar, lowered to
// registers by LowerAffine) is k*idx + rest per
// dimension, idx the loop's own index and rest fixed for one entry of the
// loop, so it addresses element base + idx*stride of the flat array. Such
// a subscript is monotone in idx: checking it at the first and the last
// iteration checks every iteration in between, and the range check moves
// from each access to the loop entry (in a nest, to the outer loop's entry:
// a nest's plan). When any reference of the body fails
// the entry check, that entry runs the per-access-checked body instead, so
// a fault is found at the same iteration, with the same value and after
// the same stores as without cursors. An indirect reference A(IDX(affine))
// rides along: IDX is such a cursor, and what it holds is checked against
// A's extent at each access, in the closure that loads or stores (gather),
// or by the row form once per entry.

// RegAffine is c + Σ k·regs[reg]: an affine expression over parameters and
// loop indices, resolved to a layout's registers — the form a cursor's entry
// check and a slice's placement evaluate at run time.
type RegAffine struct {
	c     int64
	terms []regTerm
}

type regTerm struct {
	reg int
	k   int64
}

// LowerAffine resolves a's variables to lay's registers.
func LowerAffine(a linear.Affine, lay *interp.Layout) (RegAffine, error) {
	out := RegAffine{c: a.Const, terms: make([]regTerm, 0, a.NumTerms())}
	for _, v := range a.Vars() {
		var reg int
		var ok bool
		switch v.Kind {
		case linear.KindSymbolic:
			reg, ok = lay.ParamReg(v.Name)
		case linear.KindLoop:
			reg, ok = lay.IndexReg(v.Name)
		}
		if !ok {
			return out, fmt.Errorf("compile: %s is neither a parameter nor a loop index", v.Name)
		}
		out.terms = append(out.terms, regTerm{reg, a.Coeff(v)})
	}
	return out, nil
}

// Eval evaluates a over a register file, in wrapping arithmetic like every
// lowered integer expression.
func (a RegAffine) Eval(regs []int64) int64 {
	v := a.c
	for _, t := range a.terms {
		v += t.k * regs[t.reg]
	}
	return v
}

// ref is the cursor reference in slot: a loop's slots are consecutive.
func (pl *plan) ref(slot int) *curRef { return &pl.refs[slot-pl.refs[0].slot] }

// curRef is one cursor reference: its frame slot, its array and, per
// dimension, the subscript's coefficient of the loop index and the rest, and
// out, rest's coefficient of the enclosing loop's index (a nest's plan).
type curRef struct {
	ref      *ir.Ref
	slot, id int
	k, out   []int64
	rest     []RegAffine
	moves    bool // some k is not zero
}

// cursor gives reference n a cursor slot when a cursor form is being
// lowered and every subscript is affine. References it declines lower
// through offsetFn, which also reports their errors.
func (c *cc) cursor(n *ir.Ref) (slot int, ok bool) {
	in := c.inner // the plan of the loop whose cursor form is being lowered
	if in == nil {
		return 0, false
	}
	for i := range in.refs {
		if in.refs[i].ref == n {
			return in.refs[i].slot, true
		}
	}
	id, known := c.p.lay.ArrayID(n.Name)
	decl := c.p.prog.Array(n.Name)
	if !known || decl == nil || decl.Rank() != len(n.Subs) {
		return 0, false
	}
	ref := curRef{ref: n, slot: c.p.ncur, id: id, k: make([]int64, 0, len(n.Subs)),
		out: make([]int64, 0, len(n.Subs)), rest: make([]RegAffine, 0, len(n.Subs))}
	for _, sx := range n.Subs {
		// Only ring operations are affine (see enter), so /, mod, min, max
		// and indirect reads stay on the checked path.
		a, ok := c.env.Affine(sx)
		if !ok {
			return 0, false
		}
		rest, err := LowerAffine(a, c.p.lay)
		if err != nil {
			return 0, false
		}
		// Split the loop's own index off: what is left is loop-invariant.
		k, out, terms := int64(0), int64(0), rest.terms[:0]
		for _, t := range rest.terms {
			if t.reg == in.reg {
				k += t.k
			} else if terms = append(terms, t); t.reg == in.outer {
				out += t.k
			}
		}
		rest.terms = terms
		ref.k, ref.out, ref.moves = append(ref.k, k), append(ref.out, out), ref.moves || k != 0
		ref.rest = append(ref.rest, rest)
	}
	c.p.ncur++
	in.refs = append(in.refs, ref)
	return ref.slot, true
}

// gatherRef is A(IDX(affine)) in a cursor form, A of rank 1: the index
// array reads through its own cursor, so its range check is hoisted like any
// cursor's, while the check on A depends on the data and stays per access —
// in the closure that loads or stores, where the checked path chains
// arrayRead, offsetFn, intArrayRead and IDX's own arrayRead and offsetFn.
type gatherRef struct {
	slot, reg, id  int
	nonInt, bounds *Fault
	distinct       bool // a row body reads back what it scatters through it
}

// gather gives reference n a gatherRef when a cursor form is being lowered
// and n has that shape.
func (c *cc) gather(n *ir.Ref) (g gatherRef, ok bool) {
	if c.inner == nil || len(n.Subs) != 1 {
		return g, false
	}
	ix, isRef := n.Subs[0].(*ir.Ref)
	id, known := c.p.lay.ArrayID(n.Name)
	if decl := c.p.prog.Array(n.Name); !isRef || !ix.IsArray() || !known || decl == nil || decl.Rank() != 1 {
		return g, false
	}
	slot, ok := c.cursor(ix)
	return gatherRef{slot, c.inner.reg, id, nonIntFault(ix.Name, ix.P), boundsFault(n.Name, 1, n.P), false}, ok
}

// gatherIn is the one meaning of A(v), v an index-array element and n A's
// extent: an integer in 1..n. Scalar closures, the checked path and the
// inspector's scans ask it through gatherOff, row entries directly.
func gatherIn(v float64, n int64) bool {
	iv := int64(v)
	return float64(iv) == v && uint64(iv-1) < uint64(n)
}

// gatherOff is A's flat offset for v, or -1 behind the fault the interpreter
// reports when gatherIn says no: not an integer first, then outside A.
func gatherOff(fr *Frame, v float64, id int, nonInt, bounds *Fault) int64 {
	if gatherIn(v, fr.Dims[id][0]) {
		return int64(v) - 1
	}
	f, val := bounds, int64(v)
	if float64(val) != v {
		f, val = nonInt, int64(math.Float64bits(v))
	}
	fr.trip(f, val)
	return -1
}

func addChecked(a, b int64) (int64, bool) {
	s := a + b
	return s, (s >= a) == (b >= 0)
}

// mulChecked multiplies without dividing (enter runs it two or three times
// per dimension): the signed 128-bit product is the unsigned one corrected for
// each negative operand, and fits when its high word is its low one's sign.
func mulChecked(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	p := int64(lo)
	return p, int64(hi)-b&(a>>63)-a&(b>>63) == p>>63
}

// enter range-checks the reference over the loop's index values first..last
// in each row of an enclosing loop whose index lies 0..reach past what its
// register holds, step apart (a plain entry: reach 0); on success it loads
// the cursor and returns what a step of that index adds to the base. The
// subscript k*j + out*r + rest is least and greatest at the ends of the
// ranges of j and r, where it is computed checked: the checked path wraps
// (agreeing modulo 2^64, as affine forms use ring operations only), and a
// product that wraps must not pass for an in-range value. Base, stride and
// delta may wrap: base + idx*stride is still the exact offset.
func (r *curRef) enter(fr *Frame, reach, first, last, step int64) (delta int64, ok bool) {
	fr.Checks++
	dims := fr.Dims[r.id]
	if len(dims) != len(r.k) {
		return 0, false
	}
	var base, stride int64
	for d, k := range r.k {
		rest := r.rest[d].Eval(fr.Regs)
		rlo, rhi, fits := rest, rest, true
		if reach != 0 { // a loop entry skips what only rows need
			far, ok1 := mulChecked(r.out[d], reach)
			lo, ok2 := addChecked(rest, min(far, 0))
			hi, ok3 := addChecked(rest, max(far, 0))
			rlo, rhi, fits = lo, hi, ok1 && ok2 && ok3
			delta = delta*dims[d] + r.out[d]
		}
		a, ok1 := mulChecked(k, first)
		b, ok2 := mulChecked(k, last)
		lo, ok3 := addChecked(rlo, min(a, b))
		hi, ok4 := addChecked(rhi, max(a, b))
		if !(fits && ok1 && ok2 && ok3 && ok4) || lo < 1 || hi > dims[d] {
			return 0, false
		}
		// Row-major Horner step over offset = base + idx*stride.
		base = base*dims[d] + rest - 1
		stride = stride*dims[d] + k
	}
	fr.cur[r.slot] = cursor{data: fr.Arrays[r.id], base: base, stride: stride}
	return delta * step, true
}

// plan is the entry plan of one innermost loop (docs/INTERNALS.md §11): its
// body as Prog.Stmt lowers it (checked), in cursor form over refs (fast) and
// in row form (row; assigned: the scalars it stores), of a guard's then
// statements if it has one. An entry is one row, what its guard admits, unless
// lo is set: then each index of it, in register outer, is a row running pre
// and loop over lo..hi (the same in every row unless vary); perRow runs rows
// one check cannot cover; memo (-1: none) lives in scope (memoScope).
type plan struct {
	p                       *Prog
	loop                    *ir.Loop
	reg, outer, memo, scope int
	refs                    []curRef
	assigned                []string
	fast, checked           StmtFn
	row                     *rowBody
	guard                   *guard
	pre                     []StmtFn
	lo, hi                  IntFn
	vary                    bool
	perRow                  RangeFn
}

// planRow is one row of a plan: first, first+step, ... up to last.
type planRow struct{ first, last, step int64 }

// memo is what an entry over key = {start, end, step} decided for the next
// with that key in one execution (gen) of its scope: rows, and n from decide.
type memo struct {
	gen  uint64
	key  [3]int64
	rows []planRow
	n    int64
}

// nestRows is the most rows whose bounds a nest's plan reads ahead, when they
// vary: the check of a block of rows waits for all of them.
const nestRows = 256

// boxDrop is how many rows a block's box leaves out at its end: 0, or 1 in a
// test that shows the differential catches a box too small.
var boxDrop int

// rangeFn is the one driver of a plan's entries. It looks up the memo, fills
// the rows (one, or a nest's a block at a time), checks each cursor once over
// their box (check), decides each row's form (decide) and runs it; one row
// that fails the check falls back to checked, a nest's block to perRow. A
// one-row hit runs its entry's form over the cursors as that left them (only
// the loop's entries write them, and any other entry voids the memo); a
// nest's reads no bounds. A faultless entry leaves its rows in its memo.
func (pl *plan) rangeFn() RangeFn {
	return func(fr *Frame, start, end, step int64) {
		if start > end || fr.fault != nil {
			return
		}
		var m *memo
		if pl.memo >= 0 {
			s := pl.p.scratch(fr)
			if m = &s.memo[pl.memo]; m.gen != s.gen[pl.scope] || m.key != [3]int64{start, end, step} {
				m.key, m.rows = [3]int64{}, m.rows[:0]
			} else if pl.lo == nil {
				pl.runRow(fr, m.rows[0], m.n, pl.fast)
				return
			}
		}
		if pl.lo == nil { // the entry's own row, or what its guard admits
			r, ok := planRow{start, end, step}, true
			if pl.guard != nil {
				if r.first, r.last, r.step, ok = pl.guard.span(fr, start, end, step); r.first > r.last {
					return
				}
			}
			if span := r.last - r.first; span >= 0 && r.step != 1 { // end at the last index run
				r.last = r.first + span/r.step*r.step
			}
			if !ok || !pl.check(fr, 0, r.first, r.last, step, nil) {
				fr.Fallbacks++ // the per-access-checked body runs the entry
				pl.runRow(fr, planRow{start, end, step}, 0, pl.checked)
				return
			}
			n := pl.decide(fr, r)
			if pl.runRow(fr, r, n, pl.fast); m != nil && fr.fault == nil {
				m.gen, m.key, m.rows, m.n = fr.scr.gen[pl.scope], [3]int64{start, end, step}, append(m.rows, r), n
			}
			return
		}
		if end-start < 0 { // the span exceeds int64
			pl.perRow(fr, start, end, step)
			return
		}
		hit, last := m != nil && m.key[2] != 0, start+(end-start)/step*step
		for b := start; ; b += step {
			e := last
			if pl.vary {
				e = b + min((last-b)/step, nestRows-1)*step
			}
			rows, delta, first, boxLast, ok := pl.fill(fr, m, hit, start, step, b, e)
			reach := max(e-b-int64(boxDrop)*step, 0)
			if !ok || !pl.check(fr, reach, first, boxLast, step, delta) {
				pl.perRow(fr, b, end, step)
				return
			}
			pl.rows(fr, rows, delta, b, e, step)
			if m != nil && !hit {
				if m.rows = append(m.rows, rows...); e == last && fr.fault == nil {
					m.gen, m.key = fr.scr.gen[pl.scope], [3]int64{start, end, step}
				}
			}
			if b = e; e == last || fr.fault != nil {
				return
			}
		}
	}
}

// check range-checks each cursor over the box first..last of rows whose outer
// index reaches reach past its register, leaving each delta in delta.
func (pl *plan) check(fr *Frame, reach, first, last, step int64, delta []int64) bool {
	ok := len(pl.refs) == 0 || first <= last && uint64(last-first) < math.MaxInt64
	for i := 0; ok && i < len(pl.refs); i++ {
		var d int64
		if d, ok = pl.refs[i].enter(fr, reach, first, last, step); delta != nil {
			delta[i] = d
		}
	}
	return ok
}

// decide returns how many iterations row r runs in row form, its cursors
// folded to index them from 0, or 0 for the scalar cursor form.
func (pl *plan) decide(fr *Frame, r planRow) int64 {
	n := (r.last-r.first)/r.step + 1
	if rb := pl.row; r.first > r.last || rb == nil || rb.gathers != nil && n < rowGatherMin ||
		!rowLegal(rb, fr, pl.refs, r.first, n, r.step) {
		return 0
	}
	for i := range pl.refs {
		cu := &fr.cur[pl.refs[i].slot]
		cu.base, cu.stride = cu.base+r.first*cu.stride, cu.stride*r.step
	}
	return n
}

// fill returns the rows b..e of a nest's entry from start by step (the memo's or
// read into the scratch), where its cursors' deltas go, the box of the rows'
// ranges, and whether their bounds could be read, a fault there taken back.
func (pl *plan) fill(fr *Frame, m *memo, hit bool, start, step, b, e int64) (rows []planRow, delta []int64, first, last int64, ok bool) {
	s := pl.p.scratch(fr)
	if rows, delta, first, last, ok = s.rows[:0], s.delta[:len(pl.refs)], math.MaxInt64, math.MinInt64, true; hit {
		rows = m.rows[(b-start)/step:][:(e-b)/step+1]
	}
	for i := b; !hit; i += step {
		fr.Regs[pl.outer] = i
		rows = append(rows, planRow{pl.lo(fr), pl.hi(fr), 1})
		if !pl.vary || i == e || fr.fault != nil {
			s.rows, ok, fr.fault = rows, fr.fault == nil, nil
			break
		}
	}
	for _, r := range rows[:max(len(rows)-boxDrop, 1)] {
		if r.first <= r.last {
			first, last = min(first, r.first), max(last, r.last)
		}
	}
	fr.Regs[pl.outer] = b
	return rows, delta, first, last, ok
}

// rows runs a nest's checked rows b..e by step: pre, then the row in the form
// decide gives it, decided once where no row can answer otherwise (the same
// bounds in each, no gather, each cursor on a stored array moving with the
// store, so every pair of offsets legal compares shifts together), the
// cursors stepped by their deltas. It polls the frame's stop flag before
// every nestRows-th row from b: per row, the poll cost spmvcsr's short CSR
// rows about 15 %.
func (pl *plan) rows(fr *Frame, rows []planRow, delta []int64, b, e, step int64) {
	once, r, n := !pl.vary && pl.row != nil && pl.row.gathers == nil, planRow{}, int64(0)
	cur := fr.cur[pl.refs[0].slot:][:len(delta)] // a loop's slots are consecutive
	for i := 0; once && i < len(delta); i++ {
		for _, at := range pl.row.stores {
			once = once && (pl.refs[i].id != pl.refs[at].id || delta[i] == delta[at])
		}
	}
	for k, i := 0, b; ; k, i = k+1, i+step {
		if k%nestRows == 0 && fr.stopped() {
			return
		}
		fr.Regs[pl.outer], r = i, rows[min(k, len(rows)-1)] // a nest whose bounds do not vary has one
		for _, st := range pl.pre {
			if st(fr); fr.fault != nil {
				return
			}
		}
		if k == 0 || !once {
			n = pl.decide(fr, r)
		}
		if n > 0 { // what runRow does, without a call per row
			pl.row.chunks(fr, n)
		} else {
			pl.runRow(fr, r, 0, pl.fast)
		}
		for j := range cur {
			if cur[j].base += delta[j]; !once && n > 0 { // unfold
				cur[j].base -= r.first * cur[j].stride
			}
		}
		if i == e || fr.fault != nil {
			return
		}
	}
}

// runRow runs row r, its cursors loaded: in row form over its n iterations,
// its cursors folded, or if n is 0 through body.
func (pl *plan) runRow(fr *Frame, r planRow, n int64, body StmtFn) {
	if n > 0 {
		pl.row.chunks(fr, n)
	}
	for i := r.first; n == 0 && i <= r.last && fr.fault == nil; i += r.step {
		fr.Regs[pl.reg] = i
		body(fr)
	}
}
