package exec

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/comm"
	"repro/internal/compile"
	"repro/internal/decomp"
	"repro/internal/interp"
)

// UseReferenceEngine makes r's workers run the tree-walking reference
// engine (ref_test.go) instead of the closure frame. The step program,
// the runtime and the storage are shared; only the statement engine
// differs, which is what the parity gate and the fuzzer compare.
func UseReferenceEngine(r *Runner) { r.newEngine = newRefEngine }

// RecordFallbacks makes r keep the closure frame of every worker it binds
// and returns the sum of their compile.Frame.Fallbacks — read it after the
// run has returned, when the workers are done with the frames.
func RecordFallbacks(r *Runner) (total func() int64) {
	return recordFrames(r, func(fr *compile.Frame) int64 { return fr.Fallbacks })
}

// RecordRowEntries is RecordFallbacks for compile.Frame.Rows, the loop
// entries that ran in row form.
func RecordRowEntries(r *Runner) (total func() int64) {
	return recordFrames(r, func(fr *compile.Frame) int64 { return fr.Rows })
}

// RecordChecks is RecordFallbacks for compile.Frame.Checks, the cursor range
// checks loop entries made.
func RecordChecks(r *Runner) (total func() int64) {
	return recordFrames(r, func(fr *compile.Frame) int64 { return fr.Checks })
}

func recordFrames(r *Runner, count func(*compile.Frame) int64) (total func() int64) {
	var mu sync.Mutex
	var frames []*compile.Frame
	bind := r.newEngine
	r.newEngine = func(run *teamRun, w int) engine {
		e := bind(run, w)
		if fe, ok := e.(*frameEngine); ok {
			mu.Lock()
			frames = append(frames, fe.fr)
			mu.Unlock()
		}
		return e
	}
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		var n int64
		for _, fr := range frames {
			n += count(fr)
		}
		return n
	}
}

// SetRowHook hands every row a scan of r's runs computes — site id, worker
// rank, the ranks it is about to wait on — to f, and makes the worker wait
// on what f returns instead. f runs on the workers' goroutines.
func SetRowHook(r *Runner, f func(site, w int, row []int) []int) {
	r.rowHook = func(ws *workerState, site int, row []int) []int { return f(site, ws.w, row) }
}

// RowCheck is what CheckRows collects over r's runs.
type RowCheck struct {
	r  *Runner
	mu sync.Mutex
	// Diff describes every row that is not the reference scan's.
	Diff []string
	ref  map[int]InspectorSite
}

// CheckRows makes every scan of r's runs also run the reference scan
// (refscan_test.go) on the same worker state and compare rows.
func CheckRows(r *Runner) *RowCheck {
	c := &RowCheck{r: r, ref: map[int]InspectorSite{}}
	r.rowHook = func(ws *workerState, site int, row []int) []int {
		ref := ws.scan(r.insp[site].src)
		c.mu.Lock()
		defer c.mu.Unlock()
		if want := ref.partners[ws.w]; ref.conservative || !slices.Equal(row, want) {
			c.Diff = append(c.Diff, fmt.Sprintf("site %d worker %d: row %v, reference %v (conservative=%v)",
				site+1, ws.w, row, want, ref.conservative))
		}
		if ws.w == 0 {
			// The counts as worker 0 of the reference inspector kept them.
			s := c.ref[site+1]
			s.Scans++
			s.Conflicts += ref.conflicts
			if ref.conflicts == 0 {
				s.EmptyCrossings++
			} else {
				s.WaitCrossings++
			}
			c.ref[site+1] = s
		}
		return row
	}
	return c
}

// Want returns the reference's counts for the run that produced res. The
// hook sees scans, not crossings: a cacheable site's one verdict stands for
// every crossing res reports.
func (c *RowCheck) Want(res *Result) map[int]InspectorSite {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[int]InspectorSite{}
	for id, s := range c.ref {
		if c.r.insp[id-1].cacheable {
			n := res.Inspector[id].EmptyCrossings + res.Inspector[id].WaitCrossings
			s.EmptyCrossings, s.WaitCrossings = s.EmptyCrossings*n, s.WaitCrossings*n
		}
		out[id] = s
	}
	return out
}

// RowsDetached compares, without a team, every worker's row at every
// inspector site of r with the reference scan's, over st — the state a
// sequential run left, so the index arrays hold their frozen values — and
// under the placement kind given, whatever the plan's own. Every loop index
// reads 1. It returns how many rows it compared.
func RowsDetached(r *Runner, st *interp.State, kind decomp.Kind) (rows int, err error) {
	for _, pl := range r.plan.Placements {
		defer func(k decomp.Kind) { pl.Kind = k }(pl.Kind)
		pl.Kind = kind
	}
	run := &teamRun{Runner: r, ps: newPState(st)}
	W := r.cfg.Workers
	for site, is := range r.insp {
		if is == nil {
			continue
		}
		for w := 0; w < W; w++ {
			ws := &workerState{run: run, w: w, regs: make([]int64, r.exe.Layout().NumRegs())}
			for i := range ws.regs {
				ws.regs[i] = 1
			}
			run.seedParams(ws.regs)
			got, exact := newScanner(ws).row(is, w, W, nil)
			ref := ws.scan(is.src)
			if want := ref.partners[w]; !exact || ref.conservative || !slices.Equal(got, want) {
				return rows, fmt.Errorf("site %d worker %d of %d (%v): row %v exact=%v, reference %v conservative=%v",
					site+1, w, W, kind, got, exact, want, ref.conservative)
			}
			rows++
		}
	}
	return rows, nil
}

// SetWidth makes r's runs lease w of its workers, whatever NewRunner
// decided: the narrowed run of a kernel the decision keeps at P.
func SetWidth(r *Runner, w int) { r.width = w }

// NumSyncSites returns the number of scheduled sync sites (region
// boundaries), the domain of Config.SabotageEdge.
func (r *Runner) NumSyncSites() int { return r.nSites }

// SyncSiteClasses returns the scheduled synchronization class of every
// sync site, indexed by site id (SabotageEdge minus one). Sites with
// comm.ClassNone are boundaries the optimizer proved need no
// synchronization; sabotaging those is a no-op.
func (r *Runner) SyncSiteClasses() []comm.Class {
	out := make([]comm.Class, r.nSites)
	for i, site := range r.low.Sites {
		out[i] = site.Class
	}
	return out
}
