package exec

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/spmdrt"
)

// runSeq executes a width-1 run: the closure program run sequentially over
// st (compile.Prog.RunSeq) on the caller's goroutine, with no team, no step
// program and no synchronization. With one worker no value crosses workers,
// so nothing is left to order, and the compiled program already gives a loop
// with private or reduction scalars what one worker of a team does with its
// slice. The context stops the run through a flag its loops poll.
func (r *Runner) runSeq(ctx context.Context, st *interp.State) (*Result, error) {
	var stop atomic.Bool
	defer context.AfterFunc(ctx, func() { stop.Store(true) })()
	sp := r.cfg.Spans.Start(r.cfg.SpansParent, "seq run")
	start := time.Now()
	err := r.exe.RunSeq(st, &stop)
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
