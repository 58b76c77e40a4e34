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
// (guard.go), of the then statements.
type forms struct {
	p             *Prog
	loop          *ir.Loop
	reg           int
	refs          []curRef
	fast, checked StmtFn
	row           *rowBody
	guard         *guard
}

// rangeFn builds the per-entry driver: an entry whose references all pass
// their range check runs entry, any other counts a fallback and runs checked.
func (f *forms) rangeFn() RangeFn {
	return func(fr *Frame, start, end, step int64) {
		if start > end || fr.fault != nil {
			return
		}
		// end-start wraps negative when the span exceeds int64.
		span := end - start
		ok := span >= 0 || len(f.refs) == 0
		last := start + span/step*step
		for i := 0; ok && i < len(f.refs); i++ {
			_, ok = f.refs[i].enter(fr, 0, start, last, 0)
		}
		if !ok {
			fr.Fallbacks++
			f.scalar(fr, f.checked, start, end, step)
			return
		}
		f.entry(fr, f.row, start, end, step)
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

// nest builds the driver of an outer loop, index register reg, whose body is
// f's loop alone over lo..hi, bounds no iteration of either loop changes. An
// outer entry checks each cursor once for all its rows, which it then runs
// as entries of f, adding each cursor's delta in between; if legality cannot
// differ between rows (rowBody.steady), it is decided once too. An outer
// entry whose inner range is empty or whose check fails runs perEntry, which
// checks each row as it comes and so raises every fault as before.
func (f *forms) nest(reg int, lo, hi IntFn, perEntry RangeFn) RangeFn {
	return func(fr *Frame, start, end, step int64) {
		if start > end || fr.fault != nil {
			return
		}
		span, first, last := end-start, lo(fr), hi(fr)
		count, reach := last-first+1, span/step*step
		ok := span >= 0 && first <= last && count > 0
		delta := f.p.scratch(fr).delta[:len(f.refs)]
		fr.Regs[reg] = start
		for i := 0; ok && i < len(f.refs); i++ {
			delta[i], ok = f.refs[i].enter(fr, reach, first, last, step)
		}
		if !ok {
			perEntry(fr, start, end, step)
			return
		}
		row, once := f.row, false
		if row.steady(f.refs, delta) {
			if once = rowLegal(row, fr, f.refs, first, count, 1); once {
				fold(fr, f.refs, first, 1)
			}
			row = nil
		}
		cur := fr.cur[f.refs[0].slot:][:len(delta)] // a loop's slots are consecutive
		for i := start; i <= end; i += step {
			if fr.fault != nil {
				return
			}
			fr.Regs[reg] = i
			if once {
				f.row.chunks(fr, count)
			}
			folded := !once && f.entry(fr, row, first, last, 1)
			for k := range cur {
				if cur[k].base += delta[k]; folded {
					cur[k].base -= first * cur[k].stride
				}
			}
		}
	}
}
