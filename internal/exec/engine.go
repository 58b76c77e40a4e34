package exec

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/ir"
)

// engine is the statement engine under one worker's step program: every
// operation that touches registers, scalars and arrays. The steps — loop
// control, sync sites, the inspector, the relay chains — own partitioning
// and synchronization and never look behind it. The closure frame is the only implementation outside test files; the
// tests keep the tree-walking evaluator as a second one, to compare against.
//
// A returned error is an evaluation fault. The worker records the first
// one as its error and keeps synchronizing, so peers are not deadlocked by
// the failure.
type engine interface {
	// bounds evaluates the lower and upper bound of a step's loop.
	bounds(at *stepAt) (lo, hi int64, err error)
	// probeBounds is bounds for activity estimates: a failure is reported
	// as !ok and leaves no fault behind (the estimate then counts every
	// worker).
	probeBounds(at *stepAt) (lo, hi int64, ok bool)
	// setIndex binds the index register of a sequential loop the steps
	// drive.
	setIndex(reg int, v int64)
	// enter runs what an entry of a sequential loop the steps drive runs
	// first (compile.Prog.Enter).
	enter(at *stepAt)
	// runSlice executes the body of a step's loop for start, start+step,
	// ... up to end.
	runSlice(at *stepAt, start, end, step int64) error
	// exec executes statements in order with sequential semantics (a
	// nested `parallel` annotation runs sequentially here).
	exec(stmts []ir.Stmt) error
	// setPriv redirects a scalar to a worker-local cell (nil: back to the
	// shared slot) and returns the previous redirection.
	setPriv(name string, cell *float64) (old *float64)
	// setRepl marks replicated-mode execution — same-value stores from
	// every worker, which the sanitizer exempts.
	setRepl(on bool)
	// done ends the worker's use of the engine: what it borrowed goes back.
	done()
}

// frameEngine runs the bodies lowered once per program into Go closures
// over one worker's flat register frame (internal/compile): no maps, no
// string lookups and no error allocation per iteration. A runtime fault
// lands in the frame's fault slot, which is checked by pointer compare and
// becomes an error where a method returns.
type frameEngine struct {
	exe *compile.Prog
	fr  *compile.Frame
}

// bindFrame binds a new frame to the run's storage: the shared scalar
// vector, array bases and extents, and the parameter registers.
func (run *teamRun) bindFrame() *compile.Frame {
	fr := run.exe.NewFrame()
	fr.Scal = run.ps.scalars
	for i, a := range run.prog.Arrays {
		if av := run.ps.arrays[a.Name]; av != nil {
			fr.Arrays[i], fr.Dims[i] = av.Data, av.Dims
		}
	}
	run.seedParams(fr.Regs)
	return fr
}

// newFrameEngine binds worker w's frame and, under Config.Sanitize, the
// tracker with the run's site vector.
func newFrameEngine(run *teamRun, w int) engine {
	fr := run.bindFrame()
	if run.san != nil {
		fr.San, fr.SanW, fr.Sites = run.san.tr, w, run.san.sites
	}
	return &frameEngine{exe: run.exe, fr: fr}
}

// bounds reports only a fault the bounds themselves raise. One pending
// from earlier (the worker failed and now only keeps synchronizing) is set
// aside while they evaluate and stays the recorded one: if it made every
// later bounds call fail, the worker would skip the relay posts and nested
// sync sites its peers wait on.
func (e *frameEngine) bounds(at *stepAt) (lo, hi int64, err error) {
	mark, markVal := e.fr.FaultMark()
	e.fr.FaultRestore(nil, 0)
	lo, hi = at.lo(e.fr), at.hi(e.fr)
	err = e.fr.Err()
	if mark != nil {
		e.fr.FaultRestore(mark, markVal)
	}
	return lo, hi, err
}

func (e *frameEngine) probeBounds(at *stepAt) (lo, hi int64, ok bool) {
	mark, markVal := e.fr.FaultMark()
	lo, hi, err := e.bounds(at)
	e.fr.FaultRestore(mark, markVal)
	return lo, hi, err == nil
}

func (e *frameEngine) setIndex(reg int, v int64) { e.fr.Regs[reg] = v }

func (e *frameEngine) enter(at *stepAt) { e.exe.Enter(e.fr, at.loop) }

// runSlice hands the slice to the loop's lowered driver — the executor's
// hottest loop lives in internal/compile.
func (e *frameEngine) runSlice(at *stepAt, start, end, step int64) error {
	if at.rng == nil {
		return fmt.Errorf("loop %s not lowered by the closure backend", at.loop.Index)
	}
	at.rng(e.fr, start, end, step)
	return e.fr.Err()
}

func (e *frameEngine) exec(stmts []ir.Stmt) error {
	for _, s := range stmts {
		if !e.fr.Ok() {
			break
		}
		fn := e.exe.Stmt(s)
		if fn == nil {
			return fmt.Errorf("%s: statement not lowered by the closure backend", s.Pos())
		}
		fn(e.fr)
	}
	return e.fr.Err()
}

// setPriv ignores undeclared names: a reference to one would already have
// failed compilation.
func (e *frameEngine) setPriv(name string, cell *float64) (old *float64) {
	if slot, ok := e.exe.Layout().ScalarSlot(name); ok {
		old, e.fr.Priv[slot] = e.fr.Priv[slot], cell
	}
	return old
}

func (e *frameEngine) setRepl(on bool) { e.fr.SanRepl = on }

func (e *frameEngine) done() { e.exe.Release(e.fr) }
