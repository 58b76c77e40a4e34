package exec

// The runtime inspector/executor. A ClassInspector site carries the access
// pairs the optimizer could not order statically but proved scan-resolvable:
// every subscript and chain-loop bound evaluates from parameters, live outer
// loop indices, integer intrinsics and frozen index arrays. NewRunner lowers
// both sides of each pair once (compile.Detached closures for chain bounds
// and the reference's flat offset, the slices' RegAffines for placements).
// At a crossing worker u computes only its own row — the ranks v whose source
// footprint meets u's destination footprint: it marks its own destination
// block in a bitset over the array's flat extent and streams every other
// worker's source elements against it, up to the first hit. No worker stores
// another's footprint or waits for another's scan: a rendezvous to exchange
// footprints would be the barrier the site exists to remove. Every worker
// posts unconditionally, so waits cannot deadlock, and a row is a function
// of frozen data and replicated loop indices only. A scan that cannot finish
// (budget exhausted, subscript out of bounds, mod by zero) makes that
// worker's row every other rank: a superset of the exact row, so sound.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/compile"
	"repro/internal/decomp"
	"repro/internal/ir"
	"repro/internal/linear"
	"repro/internal/region"
)

// scanBudget bounds the element visits of one scan (one worker's row over
// every pair of the site). Exceeding it degrades to the conservative row
// rather than stalling the crossing.
const scanBudget = 1 << 20

// InspectorSite aggregates one inspector site's runtime behavior over a run,
// folded from the workers' rows after the team has joined.
type InspectorSite struct {
	// Scans is how many times a worker computed its row: once per crossing,
	// or once per run at a cacheable site regardless of crossing count.
	Scans int64 `json:"scans"`
	// Conflicts is the total number of directed wait edges the scans
	// synthesized: the sum of every worker's row sizes.
	Conflicts int64 `json:"conflicts"`
	// EmptyCrossings counts crossings certified conflict-free: no worker
	// waited at all.
	EmptyCrossings int64 `json:"empty_crossings"`
	// WaitCrossings counts crossings that needed at least one wait.
	WaitCrossings int64 `json:"wait_crossings"`
	// Conservative counts scans in which some worker fell back to waiting
	// on every other rank.
	Conservative int64 `json:"conservative,omitempty"`
	// ScanNS is the wall time worker 0 spent computing its own rows at this
	// site, ScanVisits the element visits that took. Every worker scans its
	// own row, concurrently; one worker's cost stands in for the others'.
	ScanNS     int64 `json:"scan_ns,omitempty"`
	ScanVisits int64 `json:"scan_visits,omitempty"`
}

// inspSite is one inspector site as its runner lowered it.
type inspSite struct {
	src   []comm.InspectPair // what pairs was lowered from; the tests' reference scan reads it
	pairs []scanPair
	// cacheable: no expression of any pair reads a loop index outside its
	// own chain (no live outer index, no carrier), so every crossing scans
	// the same frozen data and a worker's first row serves its whole run.
	cacheable bool
}

// scanPair is one ordered access pair: u waits on v when what v touches on
// src meets what u touches on dst.
type scanPair struct {
	src, dst scanSide
	// carrier is the register of the carried test's loop index, -1 at a
	// loop-independent boundary. The destination side executes in the next
	// carrier iteration.
	carrier int
}

// scanSide enumerates the flat element offsets one worker touches on one
// side of a pair.
type scanSide struct {
	// chain lists the loops around the reference, outermost first; at most
	// one is placed (parallel), the others are enumerated in full.
	chain []scanLoop
	id    int
	off   compile.IntFn
	// masterOnly marks an unplaced side only worker 0 executes (guarded);
	// any other unplaced side is replicated on every worker.
	placed, masterOnly bool
}

type scanLoop struct {
	reg    int
	lo, hi compile.IntFn
	place  *placement
}

func (s *scanSide) runsOn(w int) bool { return s.placed || !s.masterOnly || w == 0 }

// lowerInspector lowers a site's pairs over the runner's register file.
// Compile already lowered the same expressions inside their statements, so
// an error here means the pair does not belong to this program.
func (r *Runner) lowerInspector(pairs []comm.InspectPair) (st *inspSite, err error) {
	d, lay := r.exe.Detached(), r.exe.Layout()
	note := func(e error) {
		if err == nil {
			err = e
		}
	}
	intFn := func(x ir.Expr) compile.IntFn {
		fn, e := d.Int(x)
		note(e)
		return fn
	}
	side := func(s comm.InspectSide) scanSide {
		out := scanSide{masterOnly: s.Mode == region.ModeGuarded}
		var e error
		out.id, out.off, e = d.Offset(s.Ref)
		note(e)
		for _, l := range s.Chain {
			sl := scanLoop{lo: intFn(l.Lo), hi: intFn(l.Hi)}
			sl.reg, _ = lay.IndexReg(l.Index) // the layout gives every loop index one
			if l.Parallel {
				out.placed = true
				if pl := r.plan.Placements[l]; pl == nil {
					note(fmt.Errorf("inspector site: no placement for loop %s", l.Index))
				} else {
					var e error
					sl.place, e = r.lowerPlacement(pl)
					note(e)
				}
			}
			out.chain = append(out.chain, sl)
		}
		return out
	}
	st = &inspSite{src: pairs, cacheable: inspCacheable(pairs, r.plan, r.prog)}
	for _, p := range pairs {
		sp := scanPair{src: side(p.Src), dst: side(p.Dst), carrier: -1}
		if p.Carrier != "" {
			sp.carrier, _ = lay.IndexReg(p.Carrier)
		}
		st.pairs = append(st.pairs, sp)
	}
	return st, err
}

// inspCacheable decides statically whether a site's scan outcome is
// crossing-invariant: every non-array name in subscripts, chain bounds and
// placement affines is a parameter or an index of that side's own chain.
// Index-array contents are frozen, so they never invalidate a cached row.
func inspCacheable(pairs []comm.InspectPair, plan *decomp.Plan, prog *ir.Program) bool {
	for _, p := range pairs {
		for _, s := range []comm.InspectSide{p.Src, p.Dst} {
			own := map[string]bool{}
			ok := true
			check := func(e ir.Expr) {
				ir.WalkExprs(e, func(n ir.Expr) {
					if r, isRef := n.(*ir.Ref); isRef && !r.IsArray() && !own[r.Name] && !prog.IsParam(r.Name) {
						ok = false
					}
				})
			}
			for _, l := range s.Chain {
				check(l.Lo)
				check(l.Hi)
				if pl := plan.Placements[l]; l.Parallel && pl != nil {
					for _, vr := range append(pl.Offset.Vars(), pl.Space.Extent.Vars()...) {
						if vr.Kind == linear.KindLoop && !own[vr.Name] {
							ok = false
						}
					}
				}
				own[l.Index] = true
			}
			for _, sub := range s.Ref.Subs {
				check(sub)
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// inspWorker is one worker's view of one inspector site during a run.
type inspWorker struct {
	// row lists, ascending, the ranks this worker waits on: recomputed at
	// every crossing, or kept from the first at a cacheable site.
	row       []int
	crossings int64
	// flags holds rowWaits/rowConservative of every scan, in order.
	flags []uint8
	// conflicts sums the row sizes of this worker's scans; scanNS and
	// visits their wall time and element visits (worker 0 only).
	conflicts, scanNS, visits int64
}

const (
	rowWaits        uint8 = 1 << iota // the row is not empty
	rowConservative                   // the scan failed: the row is every other rank
)

// applyInspector executes one inspector crossing. The caller (applySync)
// has already applied chaos perturbation and sabotage.
func (ws *workerState) applyInspector(site int) {
	run := ws.run
	st, iw := run.insp[site], &ws.insp[site]
	iw.crossings++
	if !st.cacheable || iw.crossings == 1 {
		var t0 time.Time
		if ws.w == 0 {
			t0 = time.Now()
		}
		if ws.sc == nil {
			ws.sc = newScanner(ws)
		}
		var exact bool
		iw.row, exact = ws.sc.row(st, ws.w, run.width, iw.row)
		if ws.w == 0 {
			iw.scanNS += time.Since(t0).Nanoseconds()
			iw.visits += scanBudget - max(ws.sc.budget, 0)
		}
		if run.rowHook != nil {
			iw.row = run.rowHook(ws, site, iw.row)
		}
		var flag uint8
		if len(iw.row) > 0 {
			flag = rowWaits
		}
		if !exact {
			flag |= rowConservative
		}
		iw.flags = append(iw.flags, flag)
		iw.conflicts += int64(len(iw.row))
	}
	// Post unconditionally (every worker, every crossing): partner waits
	// then target exact crossing counts and can never deadlock.
	if run.san != nil {
		run.san.tr.P2PPost(run.p2ps[site], ws.w)
	}
	run.p2ps[site].Post(ws.w)
	for _, v := range iw.row {
		ws.tally[site].NeighborWaits++
		run.p2ps[site].WaitForAs(ws.w, v, iw.crossings)
		if run.san != nil {
			run.san.tr.P2PJoin(run.p2ps[site], ws.w, v)
		}
	}
}

// foldInspector merges the workers' views of one site once the team has
// joined. Workers cross a site equally often, so scan k of every worker is
// the same crossing (every crossing, at a cacheable site).
func foldInspector(st *inspSite, site int, workers [][]inspWorker) InspectorSite {
	w0 := &workers[0][site]
	out := InspectorSite{Scans: int64(len(w0.flags)), ScanNS: w0.scanNS, ScanVisits: w0.visits}
	for k := range w0.flags {
		var f uint8
		for _, iws := range workers {
			if k < len(iws[site].flags) {
				f |= iws[site].flags[k]
			}
		}
		n := int64(1)
		if st.cacheable {
			n = w0.crossings
		}
		if f == 0 {
			out.EmptyCrossings += n
		} else {
			out.WaitCrossings += n
		}
		if f&rowConservative != 0 {
			out.Conservative++
		}
	}
	for _, iws := range workers {
		out.Conflicts += iws[site].conflicts
	}
	return out
}

// scanner is one worker's scan state, built at its first inspector
// crossing and reused by every later scan of the run: nothing on the scan
// path allocates after that.
type scanner struct {
	// fr is the frame the lowered closures evaluate over. Its registers are
	// the steps' own (parameters and the indices of the sequential loops
	// they drive); a fault stays in it and never becomes the worker's.
	fr *compile.Frame
	// bits marks the destination elements of the pair being scanned, over
	// the array's flat extent; [lo, hi] is their hull (lo > hi: none). All
	// bits are clear between pairs.
	bits   []uint64
	lo, hi int64
	// waits[v]: rank v is already in the row.
	waits   []bool
	budget  int64
	probing bool
}

func newScanner(ws *workerState) *scanner {
	fr := ws.run.bindFrame()
	fr.Regs = ws.regs
	return &scanner{fr: fr, waits: make([]bool, ws.run.width)}
}

// row computes worker u's row at site st into row's storage; exact is false
// when the scan failed and the row is the conservative one.
func (sc *scanner) row(st *inspSite, u, W int, row []int) (_ []int, exact bool) {
	fr := sc.fr
	fr.FaultRestore(nil, 0)
	sc.budget = scanBudget
	clear(sc.waits)
	row = row[:0]
	for i := range st.pairs {
		p := &st.pairs[i]
		if !p.dst.runsOn(u) {
			continue
		}
		if n := (len(fr.Arrays[p.dst.id]) + 63) / 64; n > len(sc.bits) {
			sc.bits = make([]uint64, n)
		}
		sc.probing, sc.lo, sc.hi = false, math.MaxInt64, -1
		if p.carrier >= 0 {
			fr.Regs[p.carrier]++
		}
		sc.walk(&p.dst, 0, u, W)
		if p.carrier >= 0 {
			fr.Regs[p.carrier]--
		}
		sc.probing = true
		for v := 0; v < W && sc.lo <= sc.hi && !sc.failed(); v++ {
			if v != u && !sc.waits[v] && p.src.runsOn(v) {
				sc.waits[v] = sc.walk(&p.src, 0, v, W)
			}
		}
		if sc.lo <= sc.hi {
			clear(sc.bits[sc.lo>>6 : sc.hi>>6+1])
		}
		if sc.failed() {
			for v := 0; v < W; v++ {
				if v != u {
					row = append(row, v)
				}
			}
			return row, false
		}
	}
	for v, waits := range sc.waits {
		if waits {
			row = append(row, v)
		}
	}
	return row, true
}

func (sc *scanner) failed() bool { return sc.budget < 0 || !sc.fr.Ok() }

// walk enumerates the elements worker w touches on side s, from chain depth
// d down. Marking, it sets their bits; probing, it stops at the first one
// that is set. It returns true to stop: a hit, or a failure (see failed).
func (sc *scanner) walk(s *scanSide, d, w, W int) bool {
	fr := sc.fr
	if d == len(s.chain) {
		if sc.budget--; sc.budget < 0 {
			return true
		}
		off := s.off(fr)
		switch {
		case off < 0:
			return true
		case sc.probing:
			return off >= sc.lo && off <= sc.hi && sc.bits[off>>6]&(1<<(off&63)) != 0
		}
		sc.bits[off>>6] |= 1 << (off & 63)
		sc.lo, sc.hi = min(sc.lo, off), max(sc.hi, off)
		return false
	}
	l := &s.chain[d]
	start, end, step := l.lo(fr), l.hi(fr), int64(1)
	if !fr.Ok() {
		return true
	}
	if l.place != nil {
		start, end, step = l.place.slice(fr.Regs, start, end, w, W)
	}
	old, stop := fr.Regs[l.reg], false
	for i := start; i <= end && !stop; i += step {
		fr.Regs[l.reg] = i
		stop = sc.walk(s, d+1, w, W)
	}
	fr.Regs[l.reg] = old
	return stop
}
