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
