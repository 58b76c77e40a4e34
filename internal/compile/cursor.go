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
// forms.nest). When any reference of the body fails
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

// innerLoop is the innermost loop whose body is being lowered in cursor
// form, with the references that became cursors so far — each once: the
// scalar and the row form of a reference share a slot, and an entry runs one
// enter for both. assigned is for the row form: the scalars the body stores to.
type innerLoop struct {
	reg      int
	refs     []curRef
	assigned []string
}

// ref is the cursor reference in slot: a loop's slots are consecutive.
func (in *innerLoop) ref(slot int) *curRef { return &in.refs[slot-in.refs[0].slot] }

// curRef is one cursor reference: its frame slot, its array and, per
// dimension, the subscript's coefficient of the loop index and the rest;
// in the inner loop of a nest (forms.nest), out is rest's coefficient of the
// outer index.
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
	in := c.inner
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
	ref := curRef{ref: n, slot: c.p.ncur, id: id,
		k: make([]int64, 0, len(n.Subs)), rest: make([]RegAffine, 0, len(n.Subs))}
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
		k, terms := int64(0), rest.terms[:0]
		for _, t := range rest.terms {
			if t.reg == in.reg {
				k += t.k
			} else {
				terms = append(terms, t)
			}
		}
		rest.terms = terms
		ref.k, ref.moves = append(ref.k, k), ref.moves || k != 0
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

// forms is one innermost loop lowered: checked, the body as Prog.Stmt lowers
// it; fast, its cursor form over refs (with no refs, what every entry runs);
// row, if the body has one, its row form over the same cursors; with a guard
// (guard.go), of the then statements; memo (-1: none) in scope (memoScope).
type forms struct {
	p             *Prog
	loop          *ir.Loop
	reg           int
	refs          []curRef
	fast, checked StmtFn
	row           *rowBody
	guard         *guard
	memo, scope   int
}

// memo is what an entry over key = {start, end, step} decided, for the next
// ones with that key in one execution (gen) of its scope: the progression its
// guard admits and its form, or a nest's rows' bounds.
type memo struct {
	gen        uint64
	key        [3]int64
	lo, hi, by int64
	row        bool
	bound      []int64
}

// rangeFn builds the per-entry driver: an entry runs the progression its guard
// admits, if any; if the guard could compute it and every reference passes
// its range check, it runs entry, else counts a fallback and runs checked. An
// entry with its memo's key checks nothing: it runs the form that one ran,
// over the cursors as that one left them (only the loop's entries write them,
// and any other entry voids the memo).
func (f *forms) rangeFn() RangeFn {
	return func(fr *Frame, start, end, step int64) {
		if start > end || fr.fault != nil {
			return
		}
		var m *memo
		if f.memo >= 0 {
			s := f.p.scratch(fr)
			if m = &s.memo[f.memo]; m.gen == s.gen[f.scope] && m.key == [3]int64{start, end, step} {
				if m.row {
					f.row.chunks(fr, (m.hi-m.lo)/m.by+1)
				} else {
					f.scalar(fr, f.fast, m.lo, m.hi, m.by)
				}
				return
			}
			m.key = [3]int64{}
		}
		lo, hi, by, ok := start, end, step, true
		if f.guard != nil {
			if lo, hi, by, ok = f.guard.span(fr, start, end, step); lo > hi {
				return
			}
		}
		// end-start wraps negative when the span exceeds int64.
		span := hi - lo
		ok = ok && (span >= 0 || len(f.refs) == 0)
		last := lo + span/by*by
		for i := 0; ok && i < len(f.refs); i++ {
			_, ok = f.refs[i].enter(fr, 0, lo, last, 0)
		}
		if !ok {
			fr.Fallbacks++
			f.scalar(fr, f.checked, lo, hi, by)
			return
		}
		row := f.entry(fr, f.row, lo, hi, by)
		if m != nil && fr.fault == nil {
			*m = memo{fr.scr.gen[f.scope], [3]int64{start, end, step}, lo, hi, by, row, m.bound}
		}
	}
}

// entry runs an entry, its cursors loaded and checked, in row form if row
// allows it (and rowGatherMin, for a body that gathers) and in the scalar
// cursor form if not. It reports whether row ran, folding the cursors.
func (f *forms) entry(fr *Frame, row *rowBody, start, end, step int64) bool {
	if count := (end-start)/step + 1; row != nil && (row.gathers == nil || count >= rowGatherMin) &&
		row.run(fr, f.refs, start, count, step) {
		return true
	}
	f.scalar(fr, f.fast, start, end, step)
	return false
}

func (f *forms) scalar(fr *Frame, body StmtFn, start, end, step int64) {
	for i := start; i <= end; i += step {
		if fr.fault != nil {
			return
		}
		fr.Regs[f.reg] = i
		body(fr)
	}
}

// nestRows is the most rows whose bounds a nest driver reads ahead, when they
// vary: the check of a block of rows waits for all of them.
const nestRows = 256

// nest builds the driver of an outer loop, index register reg, whose body is
// the assignments pre and then f's loop over lo..hi, bounds no iteration of
// either loop changes and, unless vary, the same in every row. An outer entry
// checks each cursor once for a block of rows — all its rows, or nestRows of
// them when the bounds vary — which it then runs, pre and then an entry of f,
// adding each cursor's delta in between; if legality cannot differ between
// rows (rowBody.steady, same bounds), it is decided once too. From a block
// that no one check covers (its box is empty, a bound faults, or the check
// fails) the entry runs perEntry, which checks each row as it comes and so
// raises every fault as before. An entry that ran without a fault leaves its
// rows' bounds in its memo (mem, in scope) for the next with its key.
func (f *forms) nest(reg int, pre []StmtFn, lo, hi IntFn, vary bool, perEntry RangeFn, mem, scope int) RangeFn {
	return func(fr *Frame, start, end, step int64) {
		if start > end || fr.fault != nil {
			return
		}
		span := end - start
		if span < 0 {
			perEntry(fr, start, end, step)
			return
		}
		last, m, hit := start+span/step*step, (*memo)(nil), false
		if mem >= 0 {
			s := f.p.scratch(fr)
			m = &s.memo[mem]
			if hit = m.gen == s.gen[scope] && m.key == [3]int64{start, end, step}; !hit {
				m.key, m.bound = [3]int64{}, m.bound[:0]
			}
		}
		for b := start; ; b += step {
			e, bound := last, []int64(nil)
			if vary {
				e = b + min((last-b)/step, nestRows-1)*step
			}
			if hit {
				bound = m.bound[2*((b-start)/step):]
			}
			if !f.block(fr, reg, pre, lo, hi, vary, b, e, step, bound) {
				perEntry(fr, b, end, step)
				return
			}
			if m != nil && !hit {
				m.bound = append(m.bound, fr.scr.bound[:2*((e-b)/step+1)]...)
			}
			if b = e; e == last || fr.fault != nil {
				if m != nil && !hit && fr.fault == nil {
					m.gen, m.key = fr.scr.gen[scope], [3]int64{start, end, step}
				}
				return
			}
		}
	}
}

// block runs the rows b, b+step, ..., e of an outer entry (nest) behind one
// check, or reports false, having run nothing, if the box of their inner
// ranges is empty or one check cannot cover it. The bounds of varying rows are
// read first, into the scratch (unless bound holds them); a fault one trips
// there is taken back.
func (f *forms) block(fr *Frame, reg int, pre []StmtFn, lo, hi IntFn, vary bool, b, e, step int64, bound []int64) bool {
	s, first, last := f.p.scratch(fr), int64(math.MaxInt64), int64(math.MinInt64)
	if len(s.bound) == 0 && vary {
		s.bound = make([]int64, 2*nestRows)
	}
	read := bound == nil
	if read {
		bound = s.bound
	}
	for r, i := 0, b; ; r, i = r+2, i+step {
		fr.Regs[reg] = i
		if !vary {
			first, last = lo(fr), hi(fr)
			break
		}
		if read {
			bound[r], bound[r+1] = lo(fr), hi(fr)
		}
		if l, h := bound[r], bound[r+1]; l <= h {
			first, last = min(first, l), max(last, h)
		}
		if i == e || fr.fault != nil {
			break
		}
	}
	fr.Regs[reg] = b
	count := last - first + 1
	ok, delta := fr.fault == nil && first <= last && count > 0, s.delta[:len(f.refs)]
	fr.fault = nil
	for i := 0; ok && i < len(f.refs); i++ {
		delta[i], ok = f.refs[i].enter(fr, e-b, first, last, step)
	}
	if !ok {
		return false
	}
	row, once := f.row, false
	if !vary && row.steady(f.refs, delta) {
		if once = rowLegal(row, fr, f.refs, first, count, 1); once {
			fold(fr, f.refs, first, 1)
		}
		row = nil
	}
	cur := fr.cur[f.refs[0].slot:][:len(delta)] // a loop's slots are consecutive
	for r, i := 0, b; ; r, i = r+2, i+step {
		fr.Regs[reg] = i
		for _, st := range pre {
			if st(fr); fr.fault != nil {
				return true
			}
		}
		l, h := first, last
		if vary {
			l, h = bound[r], bound[r+1]
		}
		if once {
			f.row.chunks(fr, count)
		}
		folded := !once && l <= h && f.entry(fr, row, l, h, 1)
		for k := range cur {
			if cur[k].base += delta[k]; folded {
				cur[k].base -= l * cur[k].stride
			}
		}
		if i == e || fr.fault != nil {
			return true
		}
	}
}
