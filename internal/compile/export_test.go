package compile

import "repro/internal/interp"

// RunSeqFrame is RunSeq handing back the frame it ran on, for the tests of
// the external test package (which may import the kernel suite) to read the
// frame's counters.
func (p *Prog) RunSeqFrame(st *interp.State) (*Frame, error) {
	fr, err := p.seqFrame(st)
	if err != nil {
		return nil, err
	}
	return fr, p.runSeqOn(fr, st)
}

// NestDeltas is what the last nest's plan to check a block of rows on fr left
// in its scratch: each cursor's step per row, in slot order from the inner
// loop's first (nil before any row entry or nest check).
func (fr *Frame) NestDeltas() []int64 {
	if fr.scr == nil {
		return nil
	}
	return fr.scr.delta
}

// CountLegality makes every row-legality decision (rowLegal) count, until
// restore puts the rule back: total reads how many were made.
func CountLegality() (total func() int64, restore func()) {
	legal, n := rowLegal, int64(0)
	rowLegal = func(rb *rowBody, fr *Frame, refs []curRef, start, count, step int64) bool {
		n++
		return legal(rb, fr, refs, start, count, step)
	}
	return func() int64 { return n }, func() { rowLegal = legal }
}
