package costsim

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/syncopt"
)

// Table prices a run on this executor in nanoseconds: one expression node
// of compute, and one sync episode of each kind on a team of two or more
// workers (a one-worker team synchronizes with nobody, so every episode is
// free at W = 1).
type Table struct {
	NodeNS float64
	// BarrierNS is one barrier episode, CounterNS one counter episode
	// (posts and the wait), NeighborNS one neighbor-flag episode, RelayNS
	// one wavefront hand-off and DispatchNS one fork-join dispatch.
	BarrierNS, CounterNS, NeighborNS, RelayNS, DispatchNS float64
	// Margin is how many times faster one worker must be predicted to be
	// than P before a run narrows to it.
	Margin float64
}

// HostTable is the committed table, fitted on a 2-vCPU x86-64 host to the
// legs of the root package's BenchmarkFineGrain (go test -run '^$' -bench
// FineGrain -benchtime 40x -count 3 .) and to the same one-worker (team1)
// and two-worker fixed-width legs run on every program of
// BenchmarkWidthDecision, each leg's time set against the Estimate of its
// program: team1 ≈ S + NodeNS·(Par+Serial) and fixed ≈ S + NodeNS·(Serial +
// Par/2) + the episodes, S being the state set-up both legs pay.
//
//   - NodeNS: team1 over Par+Serial is 0.25–0.4 ns where the inner loops
//     take the row form (jacobi1d: 3.16M nodes in 0.84–1.16 ms; matmul:
//     13.3M in 3.1 ms) and up to 0.5 ns in a serial recurrence
//     (erlebacher).
//   - NeighborNS: fixed minus team1 plus the half of the compute the second
//     worker takes, over the episodes: 0.48–0.75 µs on jacobi1d (6000
//     episodes), redblack (4000), pipeline (2999) and jacobi2d at N=16
//     (1200).
//   - CounterNS: the same on guardedpivot (510 episodes at N=256, 190 at
//     N=96) and tred2like: 0.5–0.73 µs.
//   - BarrierNS: 0.6–1 µs a barrier at P=2 on adilike, tomcatvlike and
//     mg2level at sync_barrier's sizes.
//   - DispatchNS: the fork-join legs pay 0.77–0.94 µs per dispatch and join
//     barrier pair on jacobi1d, redblack and shallow; the rest of a barrier.
//   - RelayNS: erlebacher's 1999 hand-offs at N=64 cost 0.15–0.3 µs each
//     beyond the compute the relay overlaps.
//
// The host moves by 2x between seconds, so each is a round figure inside
// its range, and the ranges are 1.5–2x wide. Margin is the narrowest of
// them: a predicted gain below 1.5x is inside the table's own error, and
// the legs agree — erlebacher at sync_p2p's size and tred2like at N=128,
// predicted 1.33x and 1.32x faster on one worker, measured a tie, while
// pipeline and guardedpivot at N=96, predicted 2.1x and 1.8x, measured
// 1.5x and 1.7x.
//
// Every figure was measured at P=2 on two CPUs. An episode's cost is taken
// to be the same at any P ≥ 2, so the decisions at P > 2 are unverified
// until a host with four or more CPUs has measured them.
//
// The one-worker side was fitted to one-worker teams, which step every
// sync site with nobody to wait for. A narrowed run has no team at all (it
// runs the closure program sequentially), so it costs less than the table
// says: one worker is priced conservatively, and a run narrows only where a
// one-worker team would already have won. The figures and the decisions
// are those of the team1 fit.
var HostTable = Table{
	NodeNS:     0.3,
	BarrierNS:  700,
	CounterNS:  600,
	NeighborNS: 600,
	RelayNS:    250,
	DispatchNS: 200,
	Margin:     1.5,
}

// Estimate is the closed-form account of one run of a lowered step program
// at bound parameters: the compute, in expression nodes, the team divides
// among its workers and the compute it does not, and the sync episodes by
// kind. None of it depends on the worker count.
type Estimate struct {
	// Par is the weight of the partitioned steps (parallel loops and
	// wavefront relays); Serial that of the replicated and guarded steps,
	// which every worker or the master alone runs whole.
	Par, Serial float64
	// Barriers, Counters, Neighbors, Relays and Dispatches count the run's
	// episodes: executed sync steps of each class, wavefront relay
	// instances and fork-join dispatches.
	Barriers, Counters, Neighbors, Relays, Dispatches float64
}

// SyncNS is what the run's episodes cost at W workers.
func (t Table) SyncNS(e Estimate, W int) float64 {
	if W <= 1 {
		return 0
	}
	return e.Barriers*t.BarrierNS + e.Counters*t.CounterNS +
		e.Neighbors*t.NeighborNS + e.Relays*t.RelayNS + e.Dispatches*t.DispatchNS
}

// MakespanNS is the predicted run time at W workers: the serial compute,
// the partitioned compute split W ways, and the episodes.
func (t Table) MakespanNS(e Estimate, W int) float64 {
	return t.NodeNS*(e.Serial+e.Par/float64(W)) + t.SyncNS(e, W)
}

// Width is the team a run at P workers leases: one worker when its
// predicted makespan is at least Margin times below P workers', else P.
// Every width from 2 up pays the same episodes, so P is the cheapest of
// them.
func (t Table) Width(e Estimate, P int) int {
	if P > 1 && t.Margin*t.MakespanNS(e, 1) <= t.MakespanNS(e, P) {
		return 1
	}
	return P
}

// EstimateRun accounts one run of low, the lowered schedule of prog under
// plan, at params. It walks the steps once: a sequential loop whose body's
// bounds do not read its index is walked once and counted trip-count
// times, any other at each of its iterations. It
// refuses, with an error saying why, a schedule whose run it cannot
// account or whose ownership is not the block geometry the certificate
// proves for every block size: an unbound parameter, a loop bound that
// does not evaluate from the parameters (one read from an index array),
// a cyclic placement, an inspector site.
func EstimateRun(low *syncopt.Steps, plan *decomp.Plan, prog *ir.Program, params map[string]int64) (Estimate, error) {
	for _, p := range prog.Params {
		if _, ok := params[p]; !ok {
			return Estimate{}, fmt.Errorf("parameter %s not bound", p)
		}
	}
	for i, site := range low.Sites {
		if site.Class == comm.ClassInspector {
			return Estimate{}, fmt.Errorf("site %d is an inspector", i+1)
		}
	}
	ev := interp.NewEnv(&interp.State{Prog: prog, Params: params})
	e := &estimator{low: low, plan: plan, ev: ev, w: weigher{ev: ev}}
	e.walk(0, len(low.Steps), 1)
	if l := e.w.unbound; l != nil {
		return Estimate{}, fmt.Errorf("the bounds of loop %s do not evaluate from the parameters", l.Index)
	}
	return e.est, e.err
}

type estimator struct {
	low  *syncopt.Steps
	plan *decomp.Plan
	ev   *interp.Env
	w    weigher
	est  Estimate
	err  error
}

// walk accounts steps from..to-1, each executed mult times.
func (e *estimator) walk(from, to int, mult float64) {
	for pc := from; pc < to && e.err == nil; pc++ {
		st := &e.low.Steps[pc]
		switch st.Kind {
		case syncopt.StepParallel, syncopt.StepWavefront:
			if pl := e.plan.Placements[st.Loop]; pl == nil || pl.Kind == decomp.Cyclic {
				e.err = fmt.Errorf("loop %s is not block-placed", st.Loop.Index)
				return
			}
			lo, hi, ok := e.w.bounds(st.Loop)
			if !ok {
				return
			}
			e.est.Par += mult * e.w.iterations(st.Loop, lo, hi, 1)
			if st.Kind == syncopt.StepWavefront {
				e.est.Relays += mult
			}
		case syncopt.StepReplicated, syncopt.StepGuarded:
			e.est.Serial += mult * e.w.stmts(st.Stmts)
		case syncopt.StepDispatch:
			e.est.Dispatches += mult
		case syncopt.StepSync:
			switch e.low.Sites[st.Site].Class {
			case comm.ClassBarrier:
				e.est.Barriers += mult
			case comm.ClassCounter:
				e.est.Counters += mult
			case comm.ClassNeighbor:
				e.est.Neighbors += mult
			}
		case syncopt.StepSeq:
			next := st.Jump - 1
			lo, hi, ok := e.w.bounds(st.Loop)
			if !ok {
				return
			}
			if lo <= hi {
				if e.independent(pc+1, next, st.Loop.Index) {
					e.walk(pc+1, next, mult*float64(hi-lo+1))
				} else {
					for k := lo; k <= hi && e.err == nil; k++ {
						e.ev.SetIndex(st.Loop.Index, k)
						e.walk(pc+1, next, mult)
					}
					e.ev.ClearIndex(st.Loop.Index)
				}
			}
			pc = next
		}
	}
}

// independent reports whether steps from..to-1 account the same at every
// value of index: no loop they run has a bound that reads it.
func (e *estimator) independent(from, to int, index string) bool {
	for _, st := range e.low.Steps[from:to] {
		if l := st.Loop; l != nil && (reads(l.Lo, index) || reads(l.Hi, index) || readsIndex(l.Body, index)) {
			return false
		}
		if readsIndex(st.Stmts, index) {
			return false
		}
	}
	return true
}
