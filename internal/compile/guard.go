package compile

import (
	"math/bits"

	"repro/internal/ir"
	"repro/internal/linear"
)

// Index guards (docs/INTERNALS.md §11): a loop whose body is one if, no else,
// on i OP e (e affine, no i) and mod(i, m) == c atoms joined by .and. runs its
// then statements' forms over the indices admitted; the guard cannot fault.

// exact is 2^53: up to this magnitude float64 holds every integer. far stands
// for no bound.
const exact, far = 1 << 53, 1 << 60

// guard admits lo <= i <= hi with i ≡ r (mod m) and every bound.
type guard struct {
	lo, hi, r, m int64
	bounds       []guardBound
}

// guardBound is e+lo <= i <= e+hi, e evaluated as the interpreter does.
type guardBound struct {
	e      NumFn
	lo, hi int64
}

// guardOps is i OP e as a guardBound's offsets.
var guardOps = map[ir.BinKind]guardBound{ir.EqOp: {}, ir.LtOp: {lo: -far, hi: -1},
	ir.LeOp: {lo: -far}, ir.GtOp: {lo: 1, hi: far}, ir.GeOp: {hi: far}}

// indexGuard sets pl.guard and returns its then statements if body is one if
// with no else on an index guard over pl's index; otherwise it returns body.
func (c *cc) indexGuard(pl *plan, body []ir.Stmt) []ir.Stmt {
	g := &guard{lo: -exact, hi: exact, m: 1}
	for _, s := range body {
		if s, ok := s.(*ir.If); ok && len(body) == 1 && len(s.Else) == 0 && c.guardAtoms(s.Cond, pl.loop.Index, g) {
			pl.guard = g
			return s.Then
		}
	}
	return body
}

// guardAtoms adds the atoms of the conjunction x to g, or reports that x is
// not one. mod keeps the dividend's sign: c > 0 admits only i >= 1, c < 0 only
// i <= -1, c = 0 both (-0 == 0), |c| >= |m| nothing, and each i ≡ c (mod m).
func (c *cc) guardAtoms(x ir.Expr, index string, g *guard) bool {
	b, _ := x.(*ir.Bin)
	if b == nil || b.Op == ir.AndOp {
		return b != nil && c.guardAtoms(b.L, index, g) && c.guardAtoms(b.R, index, g)
	}
	isIndex := func(x ir.Expr) bool { r, ok := x.(*ir.Ref); return ok && !r.IsArray() && r.Name == index }
	l, r := b.L, b.R
	bound, known := guardOps[b.Op]
	if call, _ := r.(*ir.Call); isIndex(r) || call != nil {
		l, r, bound = r, l, guardBound{lo: -bound.hi, hi: -bound.lo}
	}
	if call, _ := l.(*ir.Call); call != nil && call.Name == "mod" && len(call.Args) == 2 && b.Op == ir.EqOp && isIndex(call.Args[0]) {
		m, okM := c.constInt(call.Args[1])
		cv, okC := c.constInt(r)
		if m = max(m, -m); !okM || !okC || m == 0 {
			return false
		}
		if cv > 0 {
			g.lo = max(g.lo, 1)
		} else if cv < 0 {
			g.hi = min(g.hi, -1)
		}
		var some, fits bool
		if g.r, g.m, some, fits = crt(g.r, g.m, floorMod(cv, m), m); !some || cv >= m || cv <= -m {
			g.lo, g.hi, g.r, g.m = 1, 0, 0, 1
		}
		return fits
	}
	a, affine := c.env.Affine(r)
	e, err := c.numExpr(r)
	g.bounds = append(g.bounds, guardBound{e.fn, bound.lo, bound.hi})
	return isIndex(l) && known && affine && a.Coeff(linear.Loop(index)) == 0 && err == nil
}

// constInt reads an integer constant of magnitude at most 2^53, as in float64.
func (c *cc) constInt(x ir.Expr) (int64, bool) {
	a, affine := c.env.Affine(x)
	v, err := c.numExpr(x)
	return a.Const, affine && a.IsConstant() && err == nil && v.cv == float64(a.Const) && a.Const >= -exact && a.Const <= exact
}

// span is the progression lo, lo+by, ... up to hi of the indices of the entry
// start..end by step that g admits (lo > hi: none); !ok, with the entry's own
// range, if start, end or an e is no integer within ±2^53 or the step
// overflows: the entry then runs the guarded body per access, a fallback.
func (g *guard) span(fr *Frame, start, end, step int64) (lo, hi, by int64, ok bool) {
	lo, hi, ok = max(start, g.lo), min(end, g.hi), start >= -exact && end <= exact
	for _, b := range g.bounds {
		v := b.e(fr)
		e := int64(v)
		ok = ok && float64(e) == v && e >= -exact && e <= exact
		lo, hi = max(lo, e+b.lo), min(hi, e+b.hi)
	}
	r, m, some, fits := crt(floorMod(start, step), step, g.r, g.m)
	if !ok || !fits {
		return start, end, step, false
	}
	if d := floorMod(r-floorMod(lo, m), m); some && d <= hi-lo {
		return lo + d, hi, m, true
	}
	return 1, 0, 1, true
}

// crt solves i ≡ a (mod m) and i ≡ b (mod n), 0 <= a < m, 0 <= b < n: if some,
// the solutions are r + k*l, 0 <= r < l = lcm(m, n), fits false if l overflows:
// with x*m ≡ g (mod n) from extended Euclid, t = (b-a)/g * x mod n/g in 128 bits.
func crt(a, m, b, n int64) (r, l int64, some, fits bool) {
	g, x, g1, x1 := m, int64(1), n, int64(0)
	for g1 != 0 {
		q := g / g1
		g, g1, x, x1 = g1, g-q*g1, x1, x-q*x1
	}
	if l, fits = mulChecked(m/g, n); !fits || (b-a)%g != 0 {
		return 0, l, false, fits
	}
	hi, lo := bits.Mul64(uint64(floorMod((b-a)/g, n/g)), uint64(floorMod(x, n/g)))
	_, t := bits.Div64(hi, lo, uint64(n/g))
	return a + m*int64(t), l, true, true
}
