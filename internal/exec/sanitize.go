package exec

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/sanitize"
)

// sanRun wires the schedule-soundness sanitizer into one execution: the
// tracker itself plus the interned site id of every statement, so a flagged
// unordered flow names the exact statement pair instead of a raw address.
type sanRun struct {
	tr *sanitize.Tracker
	// sites maps each statement's ordinal (compile.Prog.Ordinal) to its
	// interned source-site id: one read-only vector every frame shares.
	sites []uint16
}

// newSanRun registers every shared location (arrays by element count,
// scalars as single cells) and interns a site description for every
// statement of the program. Runs single-threaded before the team starts.
func newSanRun(prog *ir.Program, exe *compile.Prog, ps *pstate, workers int) *sanRun {
	sr := &sanRun{tr: sanitize.New(workers), sites: make([]uint16, exe.NumStmts())}
	for _, a := range prog.Arrays {
		if av := ps.arrays[a.Name]; av != nil {
			sr.tr.Register(a.Name, int64(len(av.Data)))
		}
	}
	for _, s := range prog.Scalars {
		sr.tr.Register(s, 1)
	}
	ir.WalkStmts(prog.Body, func(s ir.Stmt) bool {
		id := sr.tr.Site(fmt.Sprintf("%s: %s", s.Pos(), ir.StmtString(s)))
		if ord, ok := exe.Ordinal(s); ok {
			sr.sites[ord] = id
		}
		return true
	})
	return sr
}
