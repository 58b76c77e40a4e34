package exec

import (
	"context"
	"math"
	"time"

	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/spmdrt"
	"repro/internal/syncopt"
)

// A width-1 run is the closure program run sequentially over the run's
// state (compile.Prog.RunSeq) on the caller's goroutine: no team, no step
// program, no synchronization. With one worker no value crosses workers, so
// nothing is left to order. It leaves the state a one-worker team leaves,
// bit for bit: a parallel step's private scalars live in cells, so the
// shared copy keeps its value, and a reduction accumulates from the
// identity and folds into the pre-loop value, as workerState's
// execParallelSlice and fold do. Hooks (compile.Hook) on the parallel steps
// with private or reduction scalars do that. A sequential loop that
// encloses such a step is hooked too, to iterate its body, so the step runs
// through its own hook rather than a nest's rows. Under a context that can
// be cancelled every sequential loop is hooked, and polls the context once
// a time step; under one that cannot (Done is nil), the others keep their
// compiled drivers, whose nests run rows the per-iteration hook would
// split into loop entries (pipeline's k–i nest: EXPERIMENTS.md "TN, second
// block").

// seqLoop is a loop a width-1 run hooks: a StepSeq loop (body is its
// iteration; scoped says it encloses a StepParallel loop of seqLoops), or a
// StepParallel loop with private or reduction scalars: slots are their
// scalar slots, privates first, init the cells' initial values and ops the
// reductions' operators.
type seqLoop struct {
	ord    int
	at     *stepAt
	body   compile.StmtFn
	scoped bool
	slots  []int
	init   []float64
	ops    []ir.BinKind
}

// lowerSeq resolves the loops a width-1 run hooks, in step order.
func (r *Runner) lowerSeq() {
	lay := r.exe.Layout()
	var steps []int // the step of each seqLoop
	for i, st := range r.low.Steps {
		l, sl := st.Loop, seqLoop{at: &r.at[i]}
		switch {
		case st.Kind == syncopt.StepSeq:
			sl.body = r.seqBody(l)
		case st.Kind == syncopt.StepParallel && len(l.Private)+len(l.Reductions) > 0:
			for _, p := range l.Private {
				if slot, ok := lay.ScalarSlot(p); ok {
					sl.slots, sl.init = append(sl.slots, slot), append(sl.init, 0)
				}
			}
			for _, red := range l.Reductions {
				slot, _ := lay.ScalarSlot(red.Var) // NewRunner checked it is a scalar
				sl.slots, sl.init = append(sl.slots, slot), append(sl.init, reductionIdentity(red.Op))
				sl.ops = append(sl.ops, red.Op)
			}
		default:
			continue
		}
		sl.ord, _ = r.exe.Ordinal(l)
		r.seqLoops, steps = append(r.seqLoops, sl), append(steps, i)
	}
	// A StepSeq loop's steps run up to its Jump, the step after its StepNext.
	for a := range r.seqLoops {
		sl := &r.seqLoops[a]
		for b := a + 1; sl.body != nil && b < len(steps) && steps[b] < r.low.Steps[steps[a]].Jump; b++ {
			sl.scoped = sl.scoped || r.seqLoops[b].body == nil
		}
	}
}

// seqBody returns one iteration of a StepSeq loop: its body's statements,
// as the team's step walk runs them (frameEngine.exec), each loop among
// them through its own driver or hook.
func (r *Runner) seqBody(l *ir.Loop) compile.StmtFn {
	fns := make([]compile.StmtFn, len(l.Body))
	for i, s := range l.Body {
		fns[i] = r.exe.Stmt(s)
	}
	return func(fr *compile.Frame) {
		for _, fn := range fns {
			if fn(fr); !fr.Ok() {
				return
			}
		}
	}
}

// seqRun is one width-1 run's state: the context's done channel, and the
// cells and saved redirections of the parallel step being run (one at a
// time: no parallel step contains another).
type seqRun struct {
	*Runner
	done  <-chan struct{}
	cells []float64
	old   []*float64
}

// runSeq executes a width-1 run over st (see seqLoop).
func (r *Runner) runSeq(ctx context.Context, st *interp.State) (*Result, error) {
	run := &seqRun{Runner: r, done: ctx.Done(),
		cells: make([]float64, r.maxCells), old: make([]*float64, r.maxCells)}
	hooks := make([]compile.Hook, r.exe.NumStmts())
	for i := range r.seqLoops {
		switch sl := &r.seqLoops[i]; {
		case sl.body == nil:
			hooks[sl.ord] = func(fr *compile.Frame, lo, hi int64) { run.parallel(fr, sl, lo, hi) }
		case sl.scoped || run.done != nil:
			hooks[sl.ord] = func(fr *compile.Frame, lo, hi int64) { run.iterate(fr, sl, lo, hi) }
		}
	}
	sp := r.cfg.Spans.Start(r.cfg.SpansParent, "seq run")
	start := time.Now()
	err := r.exe.RunSeq(st, hooks)
	elapsed := time.Since(start)
	r.cfg.Spans.End(sp)
	if err := ctx.Err(); err != nil {
		return nil, &spmdrt.CancelError{Cause: err}
	}
	if err != nil {
		return nil, err
	}
	return &Result{State: st, Elapsed: elapsed}, nil
}

// stopped polls the run's context.
func (run *seqRun) stopped() bool {
	select {
	case <-run.done:
		return true
	default:
		return false
	}
}

// iterate runs an entry of a StepSeq loop as the steps drive it: the
// entry's memo scope begins, then each iteration sets the index and runs
// the body, after checking the context.
func (run *seqRun) iterate(fr *compile.Frame, sl *seqLoop, lo, hi int64) {
	run.exe.Enter(fr, sl.at.loop)
	for k := lo; k <= hi; k++ {
		if run.stopped() {
			fr.Abort()
			return
		}
		fr.Regs[sl.at.reg] = k
		if sl.body(fr); !fr.Ok() {
			return
		}
	}
}

// parallel runs an entry of a parallel step with private or reduction
// scalars as a one-worker team runs its slice (execParallelSlice): privates
// in cells from 0 and, when the slice has iterations, reductions in cells
// from the identity, folded into the shared scalars after it.
func (run *seqRun) parallel(fr *compile.Frame, sl *seqLoop, lo, hi int64) {
	start, end, step := sl.at.place.slice(fr.Regs, lo, hi, 0, 1)
	npriv := len(sl.slots) - len(sl.ops)
	k := len(sl.slots)
	if start > end {
		k = npriv
	}
	for i, slot := range sl.slots[:k] {
		run.cells[i], run.old[i], fr.Priv[slot] = sl.init[i], fr.Priv[slot], &run.cells[i]
	}
	sl.at.rng(fr, start, end, step)
	for i := npriv; i < k; i++ {
		acc := math.Float64frombits(fr.Scal[sl.slots[i]].Load())
		fr.Scal[sl.slots[i]].Store(math.Float64bits(combine(sl.ops[i-npriv], acc, run.cells[i])))
	}
	for i := k - 1; i >= 0; i-- {
		fr.Priv[sl.slots[i]] = run.old[i]
	}
}
