package costsim

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/decomp"
	"repro/internal/syncopt"
)

// SegKind labels a traced time segment.
type SegKind byte

const (
	// SegCompute is useful computation.
	SegCompute SegKind = '#'
	// SegBarrier is time inside a barrier (arrival to release).
	SegBarrier SegKind = 'B'
	// SegCounter is counter increment/wait time.
	SegCounter SegKind = 'C'
	// SegNeighbor is point-to-point post/wait time.
	SegNeighbor SegKind = '.'
)

// Segment is one traced interval on one worker's clock.
type Segment struct {
	Worker     int
	Start, End float64
	Kind       SegKind
}

// SimulateTrace is Simulate plus a per-worker activity trace suitable for
// Gantt rendering.
func SimulateTrace(sched *syncopt.Schedule, plan *decomp.Plan, params map[string]int64,
	nproc int, costs Costs) (Result, []Segment, error) {
	trace := []Segment{}
	res, err := simulate(sched, plan, params, nproc, costs, &trace)
	if err != nil {
		return Result{}, nil, err
	}
	return res, trace, nil
}

func (s *Simulator) segment(w int, start, end float64, kind SegKind) {
	if s.trace == nil || end <= start {
		return
	}
	*s.trace = append(*s.trace, Segment{Worker: w, Start: start, End: end, Kind: kind})
}

// RenderGantt draws the trace as one text row per worker, quantized into
// cols columns over the makespan: '#' compute, 'B' barrier, 'C' counter,
// '.' neighbor sync, ' ' idle. Later segments overwrite earlier ones
// within a cell; sync marks win over compute so waits stay visible.
func RenderGantt(w io.Writer, res Result, trace []Segment, nproc, cols int) {
	if cols <= 0 {
		cols = 100
	}
	if res.Makespan <= 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	rows := make([][]byte, nproc)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", cols))
	}
	scale := float64(cols) / res.Makespan
	rank := func(k SegKind) int {
		switch k {
		case SegBarrier:
			return 3
		case SegCounter:
			return 2
		case SegNeighbor:
			return 2
		default:
			return 1
		}
	}
	cellRank := make([][]int, nproc)
	for i := range cellRank {
		cellRank[i] = make([]int, cols)
	}
	for _, seg := range trace {
		lo := int(seg.Start * scale)
		hi := int(seg.End * scale)
		if hi >= cols {
			hi = cols - 1
		}
		for c := lo; c <= hi; c++ {
			if rank(seg.Kind) >= cellRank[seg.Worker][c] {
				rows[seg.Worker][c] = byte(seg.Kind)
				cellRank[seg.Worker][c] = rank(seg.Kind)
			}
		}
	}
	fmt.Fprintf(w, "gantt: makespan %.0f units, '#'=compute 'B'=barrier 'C'=counter '.'=neighbor\n", res.Makespan)
	for i, r := range rows {
		fmt.Fprintf(w, "w%-2d |%s|\n", i, string(r))
	}
}
