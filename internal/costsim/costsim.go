// Package costsim predicts parallel execution time of a compiled program
// by simulating per-worker clocks over the synchronization schedule.
//
// The reproduction host exposes two vCPUs, so the paper's elapsed-time
// results (measured on multiprocessor SGI hardware) cannot be observed
// directly past P=2; per DESIGN.md's substitution rule we simulate the
// substrate instead. Work is counted in abstract units (expression nodes
// executed), and synchronization costs are parameters — including a
// software-DSM preset, since the paper argues barrier elimination matters
// most there ("software barrier costs are dramatically higher", §1).
//
// It replays the step program the executor runs (syncopt.Lower) on
// per-worker clocks. That is exact for this synchronization structure: each
// worker is sequential and blocks only at sync steps, so propagating the
// clocks through the steps in order yields the same makespan a
// discrete-event simulation would. Pipelining emerges
// naturally: a loop-bottom neighbor sync lets low-ranked workers run ahead
// into later iterations, exactly the staggered wave of §3.3.
package costsim

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/linear"
	"repro/internal/syncopt"
)

// Costs parameterizes synchronization relative to one unit of computation
// (one expression node).
type Costs struct {
	// BarrierBase + BarrierPerP*P is the cost of one barrier episode.
	BarrierBase, BarrierPerP float64
	// CounterIncr/CounterWait: producer increment and consumer wait.
	CounterIncr, CounterWait float64
	// NeighborPost/NeighborWait: point-to-point post and wait.
	NeighborPost, NeighborWait float64
	// Dispatch is the fork-join master-to-team wakeup broadcast.
	Dispatch float64
}

// SharedMemory approximates a 1995 bus-based shared-memory machine
// (barriers of a few microseconds vs ~100ns ops).
func SharedMemory() Costs {
	return Costs{
		BarrierBase: 20, BarrierPerP: 10,
		CounterIncr: 3, CounterWait: 3,
		NeighborPost: 2, NeighborWait: 2,
		Dispatch: 20,
	}
}

// SoftwareDSM approximates a software distributed-shared-memory system,
// where barriers cost milliseconds (the paper's motivating case [12]).
func SoftwareDSM() Costs {
	return Costs{
		BarrierBase: 2000, BarrierPerP: 500,
		CounterIncr: 100, CounterWait: 100,
		NeighborPost: 80, NeighborWait: 80,
		Dispatch: 1000,
	}
}

// Result of one simulation.
type Result struct {
	// Makespan is the predicted parallel completion time.
	Makespan float64
	// Work is the total computation executed (equals the sequential
	// time when replication is zero).
	Work float64
	// Barriers etc. count simulated synchronization events.
	Barriers, CounterIncrs, Dispatches int64
}

// Speedup returns Work/Makespan, the predicted speedup over an ideal
// sequential execution of the same work.
func (r Result) Speedup() float64 {
	if r.Makespan == 0 {
		return 1
	}
	return r.Work / r.Makespan
}

// InspectorError reports that sync site Site (1-based, global order) is a
// runtime inspector, whose waits depend on index-array contents the
// simulator does not model.
type InspectorError struct {
	Site int
}

func (e *InspectorError) Error() string {
	return fmt.Sprintf("costsim: sync site %d is a runtime inspector, whose waits depend on index-array contents the simulator does not model", e.Site)
}

// Simulator predicts execution times for one compiled program.
type Simulator struct {
	low   *syncopt.Steps
	plan  *decomp.Plan
	costs Costs
	nproc int

	clocks []float64
	res    Result
	// ev evaluates bounds over the parameters and the live loop indices;
	// aff binds the same values as placement variables.
	ev  *interp.Env
	aff map[linear.Var]int64
	// hi[i] is the upper bound of the sequential loop StepSeq i entered.
	hi []int64
	// w weighs statements under ev.
	w   *weigher
	err error
	// trace, when non-nil, records per-worker activity segments.
	trace *[]Segment
}

// Simulate runs the prediction. P must be positive; params must bind every
// program parameter. A schedule with an inspector site yields an
// *InspectorError. The schedule decides the model: a baseline schedule
// (syncopt.Schedule.Baseline) runs fork-join, its master executing the
// sequential code and a dispatch and join barrier around every parallel
// loop; any other runs SPMD.
func Simulate(sched *syncopt.Schedule, plan *decomp.Plan, params map[string]int64,
	nproc int, costs Costs) (Result, error) {
	return simulate(sched, plan, params, nproc, costs, nil)
}

func simulate(sched *syncopt.Schedule, plan *decomp.Plan, params map[string]int64,
	nproc int, costs Costs, trace *[]Segment) (Result, error) {
	if nproc <= 0 {
		return Result{}, fmt.Errorf("costsim: nproc must be positive")
	}
	s := &Simulator{
		low: sched.Lower(), plan: plan, costs: costs, nproc: nproc,
		clocks: make([]float64, nproc),
		ev:     interp.NewEnv(&interp.State{Prog: sched.Prog, Params: params}),
		aff:    map[linear.Var]int64{},
		trace:  trace,
	}
	s.w = &weigher{ev: s.ev}
	s.hi = make([]int64, len(s.low.Steps))
	for _, p := range sched.Prog.Params {
		v, ok := params[p]
		if !ok {
			return Result{}, fmt.Errorf("costsim: parameter %s not bound", p)
		}
		s.aff[linear.Sym(p)] = v
	}
	s.run()
	if s.err != nil {
		return Result{}, s.err
	}
	for _, c := range s.clocks {
		if c > s.res.Makespan {
			s.res.Makespan = c
		}
	}
	return s.res, nil
}

func (s *Simulator) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// run replays the step program on the per-worker clocks.
func (s *Simulator) run() {
	steps := s.low.Steps
	for pc := 0; pc < len(steps) && s.err == nil; pc++ {
		st := &steps[pc]
		switch st.Kind {
		case syncopt.StepDispatch:
			// Master dispatches; workers begin no earlier than the
			// master's announcement.
			t := s.clocks[0] + s.costs.Dispatch
			s.res.Dispatches++
			for w := range s.clocks {
				if s.clocks[w] < t {
					s.clocks[w] = t
				}
			}
		case syncopt.StepParallel:
			for w := range s.clocks {
				s.runSlice(st.Loop, w, s.clocks[w])
			}
		case syncopt.StepReplicated:
			wsum := s.w.stmt(st.Stmts[0])
			for w := range s.clocks {
				s.compute(w, s.clocks[w], wsum)
			}
			// Replication executes the same work P times; count it once
			// as useful work (the rest is overhead the model charges to
			// the clocks anyway).
			s.res.Work += wsum
		case syncopt.StepGuarded:
			wsum := s.w.stmt(st.Stmts[0])
			s.compute(0, s.clocks[0], wsum)
			s.res.Work += wsum
		case syncopt.StepWavefront:
			s.wavefront(st.Loop)
		case syncopt.StepSeq:
			if lo, hi, ok := s.w.bounds(st.Loop); !ok {
				s.fail(fmt.Errorf("costsim: non-evaluable bounds of loop %s", st.Loop.Index))
			} else if lo <= hi {
				s.hi[pc] = hi
				s.setIndex(st.Loop, lo)
			} else {
				pc = st.Jump - 1
			}
		case syncopt.StepNext:
			if k, _ := s.ev.Index(st.Loop.Index); k+1 <= s.hi[st.Jump-1] {
				s.setIndex(st.Loop, k+1)
				pc = st.Jump - 1
			} else {
				s.ev.ClearIndex(st.Loop.Index)
			}
		case syncopt.StepSync:
			s.sync(st.Site)
		}
	}
}

func (s *Simulator) setIndex(l *ir.Loop, k int64) {
	s.ev.SetIndex(l.Index, k)
	s.aff[linear.Loop(l.Index)] = k
}

// compute charges worker w d units of computation starting at start.
func (s *Simulator) compute(w int, start, d float64) {
	s.segment(w, start, start+d, SegCompute)
	s.clocks[w] = start + d
}

// slice is worker w's share of loop l's iterations under the current
// indices, by the placement arithmetic the executor uses; ok is false when
// the bounds do not evaluate or the loop has no placement.
func (s *Simulator) slice(l *ir.Loop, w int) (start, end, step int64, ok bool) {
	lo, hi, ok := s.w.bounds(l)
	pl := s.plan.Placements[l]
	if !ok || pl == nil {
		return 0, -1, 1, false
	}
	off, ext := pl.Offset.Eval(s.aff), pl.Space.Extent.Eval(s.aff)
	if ext < 1 || lo > hi {
		return 0, -1, 1, true
	}
	start, end, step = decomp.IterSlice(pl.Kind, lo, hi, off, ext, w, s.nproc)
	return start, end, step, true
}

// runSlice charges worker w the computation in its slice of loop l,
// starting at t.
func (s *Simulator) runSlice(l *ir.Loop, w int, t float64) {
	first, last, step, ok := s.slice(l, w)
	if !ok {
		s.fail(fmt.Errorf("costsim: non-evaluable bounds or no placement for loop %s", l.Index))
	}
	wsum := s.w.iterations(l, first, last, step)
	s.compute(w, t, wsum)
	s.res.Work += wsum
}

// wavefront simulates the relay: worker w starts its chunk no earlier than
// worker w-1 finishes its own, producing the staggered pipeline wave.
func (s *Simulator) wavefront(l *ir.Loop) {
	prevFinish := 0.0
	for w := range s.clocks {
		start := s.clocks[w]
		if w > 0 {
			handoff := prevFinish + s.costs.NeighborWait
			if handoff > start {
				s.segment(w, start, handoff, SegNeighbor)
				start = handoff
			}
		}
		s.runSlice(l, w, start)
		s.clocks[w] += s.costs.NeighborPost
		prevFinish = s.clocks[w]
	}
}

// producers marks the workers that post at a counter site.
func (s *Simulator) producers(site *syncopt.Site) []bool {
	act := make([]bool, s.nproc)
	for w := range act {
		act[w] = site.All || (w == 0 && site.Master)
	}
	for _, i := range site.Producers {
		for w := range act {
			start, end, _, ok := s.slice(s.low.Steps[i].Loop, w)
			act[w] = act[w] || !ok || start <= end
		}
	}
	return act
}

func (s *Simulator) sync(id int) {
	site := &s.low.Sites[id]
	switch site.Class {
	case comm.ClassBarrier:
		cost := s.costs.BarrierBase + s.costs.BarrierPerP*float64(s.nproc)
		tmax := 0.0
		for _, c := range s.clocks {
			if c > tmax {
				tmax = c
			}
		}
		for w := range s.clocks {
			s.segment(w, s.clocks[w], tmax+cost, SegBarrier)
			s.clocks[w] = tmax + cost
		}
		s.res.Barriers++
	case comm.ClassCounter:
		tpost := 0.0
		for w, a := range s.producers(site) {
			if !a {
				continue
			}
			t := s.clocks[w] + s.costs.CounterIncr
			s.clocks[w] = t
			if t > tpost {
				tpost = t
			}
			s.res.CounterIncrs++
		}
		for w := range s.clocks {
			t := tpost + s.costs.CounterWait
			if s.clocks[w] < t {
				s.segment(w, s.clocks[w], t, SegCounter)
				s.clocks[w] = t
			}
		}
	case comm.ClassNeighbor:
		posts := make([]float64, s.nproc)
		for w := range s.clocks {
			s.clocks[w] += s.costs.NeighborPost
			posts[w] = s.clocks[w]
		}
		for w := range s.clocks {
			t := s.clocks[w]
			if site.WaitLower && w > 0 && posts[w-1]+s.costs.NeighborWait > t {
				t = posts[w-1] + s.costs.NeighborWait
			}
			if site.WaitUpper && w < s.nproc-1 && posts[w+1]+s.costs.NeighborWait > t {
				t = posts[w+1] + s.costs.NeighborWait
			}
			s.segment(w, s.clocks[w], t, SegNeighbor)
			s.clocks[w] = t
		}
	case comm.ClassInspector:
		s.fail(&InspectorError{Site: id + 1})
	}
}
