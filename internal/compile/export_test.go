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

// NestDeltas is what the last nest driver to check a block of rows on fr left
// in its scratch: each cursor's step per row, in slot order from the inner
// loop's first (nil before any row entry or nest check).
func (fr *Frame) NestDeltas() []int64 {
	if fr.scr == nil {
		return nil
	}
	return fr.scr.delta
}
