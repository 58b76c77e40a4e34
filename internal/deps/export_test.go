package deps

import "repro/internal/ir"

// Directions reports which iteration relations of loop (<, =, >) admit a
// same-element access by the pair (a, b) — the dependence direction vector
// entry for this level. Conservative answers count as feasible.
func (ctx *Context) Directions(loop *ir.Loop, outer []*ir.Loop, a, b Access) (lt, eq, gt bool) {
	r1, _ := ctx.pairWithRelation(loop, outer, a, b, RelLT)
	r2, _ := ctx.pairWithRelation(loop, outer, a, b, RelEQ)
	r3, _ := ctx.pairWithRelation(loop, outer, a, b, RelGT)
	return r1.MayHold(), r2.MayHold(), r3.MayHold()
}
