package syncopt

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/remarks"
)

// Remarks flattens the schedule into the optimization-remark set: one
// remark per sync site, in the global site order Lower numbers and the
// executor runs, so Remarks[i].Site == i+1 matches the counter labels,
// StatsSnapshot.PerSite, SabotageEdge and certify.DropSite numbering.
func (s *Schedule) Remarks() *remarks.Set {
	set := &remarks.Set{Program: s.Prog.Name}
	for i, site := range s.Lower().Sites {
		set.Remarks = append(set.Remarks, s.remarkAt(site.Region, site.Index, i+1))
	}
	return set
}

// remarkAt builds the remark for boundary i of region rs, with the given
// 1-based global site id.
func (s *Schedule) remarkAt(rs *RegionSched, i, site int) remarks.Remark {
	sy := rs.After[i]
	r := remarks.Remark{
		Site:      site,
		FromGroup: i,
		ToGroup:   i + 1,
		Primitive: sy.Class.String(),
		WaitLower: sy.WaitLower,
		WaitUpper: sy.WaitUpper,
		Deps:      sy.Deps,
		FM:        sy.FM,
		Note:      sy.Note,
		FDO:       sy.FDO,
	}
	r.Rejected = remarks.MergeRejected(sy.Deps, sy.Rejected, r.Primitive)

	if rs.Loop == nil {
		r.Region = "top"
	} else {
		p := rs.Loop.Pos()
		r.Region = fmt.Sprintf("loop %s @%d:%d", rs.Loop.Index, p.Line, p.Col)
	}
	if rs.Loop != nil && i == len(rs.After)-1 {
		// The loop-bottom boundary: iteration k's last group to iteration
		// k+1's first group. Anchor it at the loop header.
		r.LoopBottom = true
		r.ToGroup = 0
		r.SetPos(rs.Loop.Pos())
		return r
	}
	// Anchor at the last statement of the group the sync follows.
	if i < len(rs.Groups) && len(rs.Groups[i].Stmts) > 0 {
		sts := rs.Groups[i].Stmts
		r.SetPos(sts[len(sts)-1].Pos())
	}
	if rs.Loop == nil && i == len(rs.After)-1 && sy.Class == comm.ClassNone &&
		sy.Note == "" && len(sy.Deps) == 0 {
		r.Note = "end of program: no following statement group"
	}
	return r
}
