package compile

import (
	"fmt"
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
// from each access to the loop entry. When any reference of the body fails
// the entry check, that entry runs the per-access-checked body instead, so
// a fault is found at the same iteration, with the same value and after
// the same stores as without cursors. An indirect reference A(IDX(affine))
// rides along: IDX is such a cursor, and what it holds is checked against
// A's extent at each access, in the closure that loads or stores (gather).

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
// dimension, the subscript's coefficient of the loop index and the rest.
type curRef struct {
	ref      *ir.Ref
	slot, id int
	k        []int64
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
	return gatherRef{slot, c.inner.reg, id, nonIntFault(ix.Name, ix.P), boundsFault(n.Name, 1, n.P)}, ok
}

// gatherOff is the one meaning of A(v), v an index-array element, for the
// executor's cursor form, its checked path and the inspector's scans: A's
// flat offset, or -1 behind the fault the interpreter reports — an element
// that is not an integer first, then one outside A's extent.
func gatherOff(fr *Frame, v float64, id int, nonInt, bounds *Fault) int64 {
	iv := int64(v)
	if float64(iv) != v {
		fr.trip(nonInt, iv)
		return -1
	}
	if uint64(iv-1) >= uint64(fr.Dims[id][0]) {
		fr.trip(bounds, iv)
		return -1
	}
	return iv - 1
}

func addChecked(a, b int64) (int64, bool) {
	s := a + b
	return s, (s >= a) == (b >= 0)
}

// mulChecked multiplies without dividing (enter runs it four times per
// dimension): the signed 128-bit product is the unsigned one corrected for
// each negative operand, and fits when its high word is its low one's sign.
func mulChecked(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	p := int64(lo)
	return p, int64(hi)-b&(a>>63)-a&(b>>63) == p>>63
}

// enter range-checks the reference over one loop entry — index values
// first, first+step, ... last — and on success loads its cursor. The
// checked path computes a subscript in wrapping arithmetic, which agrees
// with k*idx + rest modulo 2^64 because affine forms use ring operations
// only; the ends are therefore computed checked, so a product that wraps
// cannot pass for an in-range value. Base and stride may wrap freely:
// base + idx*stride is still the exact offset modulo 2^64, and the exact
// offset lies inside the array.
func (r *curRef) enter(fr *Frame, first, last int64) bool {
	dims := fr.Dims[r.id]
	if len(dims) != len(r.k) {
		return false
	}
	var base, stride int64
	for d, k := range r.k {
		rest := r.rest[d].Eval(fr.Regs)
		for _, i := range [2]int64{first, last} {
			ki, fits1 := mulChecked(k, i)
			s, fits2 := addChecked(ki, rest)
			if !fits1 || !fits2 || uint64(s-1) >= uint64(dims[d]) {
				return false
			}
		}
		// Row-major Horner step over offset = base + idx*stride.
		base = base*dims[d] + rest - 1
		stride = stride*dims[d] + k
	}
	fr.cur[r.slot] = cursor{data: fr.Arrays[r.id], base: base, stride: stride}
	return true
}

// rangeFn builds a loop's driver. checked is the body as Prog.Stmt lowers
// it; fast is its cursor form over refs (with no refs it holds no cursor
// and every entry runs it); row, when the body has one, is its row form over
// the same cursors. An entry whose references all pass their range check
// runs row if the cursors just loaded prove its iterations independent and
// fast if not; any other entry counts a fallback and runs checked.
func rangeFn(reg int, refs []curRef, fast, checked StmtFn, row *rowBody) RangeFn {
	return func(fr *Frame, start, end, step int64) {
		if start > end || fr.fault != nil {
			return
		}
		body := fast
		if len(refs) > 0 {
			// end-start wraps negative when the span exceeds int64.
			span := end - start
			ok := span >= 0
			last := start + span/step*step
			for i := 0; ok && i < len(refs); i++ {
				ok = refs[i].enter(fr, start, last)
			}
			if !ok {
				fr.Fallbacks++
				body = checked
			} else if row != nil && row.run(fr, refs, start, span/step+1, step) {
				return
			}
		}
		for i := start; i <= end; i += step {
			if fr.fault != nil {
				return
			}
			fr.Regs[reg] = i
			body(fr)
		}
	}
}
