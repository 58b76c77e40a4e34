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
// The simulation is exact for this synchronization structure: each worker
// is sequential and blocks only at schedule boundaries, so propagating
// per-worker clocks through the sites in program order yields the same
// makespan a discrete-event simulation would. Pipelining emerges
// naturally: a loop-bottom neighbor sync lets low-ranked workers run ahead
// into later iterations, exactly the staggered wave of §3.3.
package costsim

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/ir"
	"repro/internal/linear"
	"repro/internal/region"
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

// Mode mirrors exec.Mode without importing it.
type Mode int

const (
	// ForkJoin simulates the baseline: master executes sequential code,
	// dispatch + join barrier around every parallel loop.
	ForkJoin Mode = iota
	// SPMD simulates the optimized schedule.
	SPMD
)

// Result of one simulation.
type Result struct {
	// Makespan is the predicted parallel completion time.
	Makespan float64
	// Work is the total computation executed (equals the sequential
	// time when replication is zero).
	Work float64
	// SyncTime aggregates time charged to synchronization operations
	// (not idling).
	SyncTime float64
	// Barriers etc. count simulated synchronization events.
	Barriers, CounterIncrs, NeighborPosts, Dispatches int64
}

// Speedup returns Work/Makespan, the predicted speedup over an ideal
// sequential execution of the same work.
func (r Result) Speedup() float64 {
	if r.Makespan == 0 {
		return 1
	}
	return r.Work / r.Makespan
}

// Simulator predicts execution times for one compiled program.
type Simulator struct {
	prog   *ir.Program
	sched  *syncopt.Schedule
	plan   *decomp.Plan
	params map[string]int64
	costs  Costs
	nproc  int
	mode   Mode

	clocks []float64
	res    Result
	env    map[string]int64
	err    error
	// trace, when non-nil, records per-worker activity segments.
	trace *[]Segment
}

// Simulate runs the prediction. P must be positive; params must bind every
// program parameter.
func Simulate(sched *syncopt.Schedule, plan *decomp.Plan, params map[string]int64,
	nproc int, mode Mode, costs Costs) (Result, error) {
	if nproc <= 0 {
		return Result{}, fmt.Errorf("costsim: nproc must be positive")
	}
	s := &Simulator{
		prog: sched.Prog, sched: sched, plan: plan, params: params,
		costs: costs, nproc: nproc, mode: mode,
		clocks: make([]float64, nproc),
		env:    map[string]int64{},
	}
	for _, p := range sched.Prog.Params {
		if _, ok := params[p]; !ok {
			return Result{}, fmt.Errorf("costsim: parameter %s not bound", p)
		}
	}
	s.region(sched.Top)
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

func (s *Simulator) region(rs *syncopt.RegionSched) {
	for gi := range rs.Groups {
		if s.err != nil {
			return
		}
		for _, st := range rs.Groups[gi].Stmts {
			s.stmt(st)
		}
		s.sync(rs, gi)
	}
}

func (s *Simulator) stmt(st ir.Stmt) {
	switch s.sched.Modes[st] {
	case region.ModeParallel:
		l := st.(*ir.Loop)
		if s.mode == ForkJoin {
			// Master dispatches; workers begin no earlier than the
			// master's announcement.
			t := s.clocks[0] + s.costs.Dispatch
			s.res.Dispatches++
			s.res.SyncTime += s.costs.Dispatch
			for w := range s.clocks {
				if s.clocks[w] < t {
					s.clocks[w] = t
				}
			}
		}
		s.parallelLoop(l)
	case region.ModeReplicated:
		w := s.weightStmt(st)
		if s.mode == ForkJoin {
			s.segment(0, s.clocks[0], s.clocks[0]+w, SegCompute)
			s.clocks[0] += w
			s.res.Work += w
			return
		}
		for i := range s.clocks {
			s.segment(i, s.clocks[i], s.clocks[i]+w, SegCompute)
			s.clocks[i] += w
		}
		// Replication executes the same work P times; count it once
		// as useful work (the rest is overhead the model charges to
		// the clocks anyway).
		s.res.Work += w
	case region.ModeGuarded:
		w := s.weightStmt(st)
		s.segment(0, s.clocks[0], s.clocks[0]+w, SegCompute)
		s.clocks[0] += w
		s.res.Work += w
	case region.ModeWavefront:
		l := st.(*ir.Loop)
		if s.mode == ForkJoin {
			w := s.weightStmt(st)
			s.segment(0, s.clocks[0], s.clocks[0]+w, SegCompute)
			s.clocks[0] += w
			s.res.Work += w
			return
		}
		s.wavefront(l)
	case region.ModeSeqLoop:
		l := st.(*ir.Loop)
		lo, ok1 := s.evalInt(l.Lo)
		hi, ok2 := s.evalInt(l.Hi)
		if !ok1 || !ok2 {
			s.fail(fmt.Errorf("costsim: non-evaluable bounds of loop %s", l.Index))
			return
		}
		inner := s.sched.Regions[l]
		for k := lo; k <= hi && s.err == nil; k++ {
			s.env[l.Index] = k
			s.region(inner)
		}
		delete(s.env, l.Index)
	}
}

// wavefront simulates the relay: worker w starts its chunk no earlier than
// worker w-1 finishes its own, producing the staggered pipeline wave.
func (s *Simulator) wavefront(l *ir.Loop) {
	lo, ok1 := s.evalInt(l.Lo)
	hi, ok2 := s.evalInt(l.Hi)
	pl := s.plan.Placements[l]
	if !ok1 || !ok2 || pl == nil {
		s.fail(fmt.Errorf("costsim: non-evaluable wavefront loop %s", l.Index))
		return
	}
	off, ok1 := s.evalAffine(pl.Offset)
	ext, ok2 := s.evalAffine(pl.Space.Extent)
	if !ok1 || !ok2 {
		s.fail(fmt.Errorf("costsim: non-evaluable placement of wavefront loop %s", l.Index))
		return
	}
	prevFinish := 0.0
	for w := 0; w < s.nproc; w++ {
		start := s.clocks[w]
		if w > 0 {
			handoff := prevFinish + s.costs.NeighborWait
			if handoff > start {
				s.segment(w, start, handoff, SegNeighbor)
				start = handoff
			}
			s.res.SyncTime += s.costs.NeighborWait
		}
		var wsum float64
		if ext >= 1 && lo <= hi {
			st2, en, step := decomp.IterSlice(pl.Kind, lo, hi, off, ext, w, s.nproc)
			for i := st2; i <= en; i += step {
				s.env[l.Index] = i
				wsum += s.weightStmts(l.Body)
			}
			delete(s.env, l.Index)
		}
		s.segment(w, start, start+wsum, SegCompute)
		s.res.Work += wsum
		finish := start + wsum + s.costs.NeighborPost
		s.res.NeighborPosts++
		s.res.SyncTime += s.costs.NeighborPost
		s.clocks[w] = finish
		prevFinish = finish
	}
}

// parallelLoop charges each worker its slice of the iteration space.
func (s *Simulator) parallelLoop(l *ir.Loop) {
	lo, ok1 := s.evalInt(l.Lo)
	hi, ok2 := s.evalInt(l.Hi)
	if !ok1 || !ok2 {
		s.fail(fmt.Errorf("costsim: non-evaluable bounds of parallel loop %s", l.Index))
		return
	}
	pl := s.plan.Placements[l]
	if pl == nil {
		s.fail(fmt.Errorf("costsim: no placement for parallel loop %s", l.Index))
		return
	}
	off, ok1 := s.evalAffine(pl.Offset)
	ext, ok2 := s.evalAffine(pl.Space.Extent)
	if !ok1 || !ok2 {
		s.fail(fmt.Errorf("costsim: non-evaluable placement of loop %s", l.Index))
		return
	}
	for w := 0; w < s.nproc; w++ {
		if ext < 1 || lo > hi {
			continue
		}
		start, end, step := decomp.IterSlice(pl.Kind, lo, hi, off, ext, w, s.nproc)
		var wsum float64
		for i := start; i <= end; i += step {
			s.env[l.Index] = i
			wsum += s.weightStmts(l.Body)
		}
		delete(s.env, l.Index)
		s.segment(w, s.clocks[w], s.clocks[w]+wsum, SegCompute)
		s.clocks[w] += wsum
		s.res.Work += wsum
	}
}

// activeWorkers mirrors exec's groupActivity for counter targets.
func (s *Simulator) activeWorkers(g syncopt.Group) []bool {
	act := make([]bool, s.nproc)
	for _, st := range g.Stmts {
		switch s.sched.Modes[st] {
		case region.ModeParallel:
			l := st.(*ir.Loop)
			lo, ok1 := s.evalInt(l.Lo)
			hi, ok2 := s.evalInt(l.Hi)
			pl := s.plan.Placements[l]
			if !ok1 || !ok2 || pl == nil {
				for i := range act {
					act[i] = true
				}
				continue
			}
			off, ok1 := s.evalAffine(pl.Offset)
			ext, ok2 := s.evalAffine(pl.Space.Extent)
			if !ok1 || !ok2 || ext < 1 || lo > hi {
				continue
			}
			for w := 0; w < s.nproc; w++ {
				st2, en, _ := decomp.IterSlice(pl.Kind, lo, hi, off, ext, w, s.nproc)
				if st2 <= en {
					act[w] = true
				}
			}
		case region.ModeWavefront:
			for i := range act {
				act[i] = true
			}
		case region.ModeGuarded:
			act[0] = true
		case region.ModeSeqLoop:
			for i := range act {
				act[i] = true
			}
		}
	}
	return act
}

func (s *Simulator) sync(rs *syncopt.RegionSched, gi int) {
	sy := rs.After[gi]
	switch sy.Class {
	case comm.ClassNone:
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
		s.res.SyncTime += cost
	case comm.ClassCounter:
		act := s.activeWorkers(rs.Groups[gi])
		tpost := 0.0
		for w, a := range act {
			if !a {
				continue
			}
			t := s.clocks[w] + s.costs.CounterIncr
			s.clocks[w] = t
			if t > tpost {
				tpost = t
			}
			s.res.CounterIncrs++
			s.res.SyncTime += s.costs.CounterIncr
		}
		for w := range s.clocks {
			t := tpost + s.costs.CounterWait
			if s.clocks[w] < t {
				s.segment(w, s.clocks[w], t, SegCounter)
				s.clocks[w] = t
			}
		}
		s.res.SyncTime += s.costs.CounterWait
	case comm.ClassNeighbor:
		posts := make([]float64, s.nproc)
		for w := range s.clocks {
			s.clocks[w] += s.costs.NeighborPost
			posts[w] = s.clocks[w]
			s.res.NeighborPosts++
			s.res.SyncTime += s.costs.NeighborPost
		}
		for w := range s.clocks {
			t := s.clocks[w]
			if sy.WaitLower && w > 0 && posts[w-1]+s.costs.NeighborWait > t {
				t = posts[w-1] + s.costs.NeighborWait
			}
			if sy.WaitUpper && w < s.nproc-1 && posts[w+1]+s.costs.NeighborWait > t {
				t = posts[w+1] + s.costs.NeighborWait
			}
			s.segment(w, s.clocks[w], t, SegNeighbor)
			s.clocks[w] = t
		}
	}
}

// weightStmt/weightStmts estimate computation in expression nodes under
// the current environment; If branches charge the heavier arm.
func (s *Simulator) weightStmts(stmts []ir.Stmt) float64 {
	var sum float64
	for _, st := range stmts {
		sum += s.weightStmt(st)
	}
	return sum
}

func (s *Simulator) weightStmt(st ir.Stmt) float64 {
	switch n := st.(type) {
	case *ir.Assign:
		return float64(exprNodes(n.LHS) + exprNodes(n.RHS))
	case *ir.If:
		thenW := s.weightStmts(n.Then)
		elseW := s.weightStmts(n.Else)
		if elseW > thenW {
			thenW = elseW
		}
		return float64(exprNodes(n.Cond)) + thenW
	case *ir.Loop:
		lo, ok1 := s.evalInt(n.Lo)
		hi, ok2 := s.evalInt(n.Hi)
		if !ok1 || !ok2 {
			return 0
		}
		var sum float64
		for i := lo; i <= hi; i++ {
			s.env[n.Index] = i
			sum += s.weightStmts(n.Body)
		}
		delete(s.env, n.Index)
		return sum + float64(hi-lo+1)
	default:
		return 0
	}
}

func exprNodes(e ir.Expr) int {
	n := 0
	ir.WalkExprs(e, func(ir.Expr) { n++ })
	return n
}

// evalInt evaluates integer expressions over parameters and bound loop
// indices (the only names loop bounds may reference).
func (s *Simulator) evalInt(e ir.Expr) (int64, bool) {
	switch n := e.(type) {
	case *ir.Num:
		if !n.IsInt {
			return 0, false
		}
		return n.Int, true
	case *ir.Ref:
		if n.IsArray() {
			return 0, false
		}
		if v, ok := s.env[n.Name]; ok {
			return v, true
		}
		if v, ok := s.params[n.Name]; ok {
			return v, true
		}
		return 0, false
	case *ir.Unary:
		if n.Op != '-' {
			return 0, false
		}
		v, ok := s.evalInt(n.X)
		return -v, ok
	case *ir.Bin:
		l, ok1 := s.evalInt(n.L)
		r, ok2 := s.evalInt(n.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch n.Op {
		case ir.Add:
			return l + r, true
		case ir.Sub:
			return l - r, true
		case ir.Mul:
			return l * r, true
		case ir.Div:
			if r == 0 {
				return 0, false
			}
			q := l / r
			if l%r != 0 && (l < 0) != (r < 0) {
				q--
			}
			return q, true
		}
	}
	return 0, false
}

// evalAffine evaluates a placement affine over parameters and bound loop
// indices.
func (s *Simulator) evalAffine(a linear.Affine) (int64, bool) {
	v := a.Const
	for _, vr := range a.Vars() {
		var val int64
		switch vr.Kind {
		case linear.KindSymbolic:
			p, ok := s.params[vr.Name]
			if !ok {
				return 0, false
			}
			val = p
		case linear.KindLoop:
			i, ok := s.env[vr.Name]
			if !ok {
				return 0, false
			}
			val = i
		default:
			return 0, false
		}
		v += a.Coeff(vr) * val
	}
	return v, true
}
