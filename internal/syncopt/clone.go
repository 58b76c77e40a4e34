package syncopt

import "repro/internal/ir"

// Clone deep-copies the schedule's region and boundary records so a
// feedback pass can flip primitives without touching the original.
// Statement groups and the underlying IR are shared, so a clone lowers to
// the same groups and can be re-checked against a certify.Analysis of the
// original's step program.
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{
		Prog:    s.Prog,
		Info:    s.Info,
		Modes:   s.Modes,
		Regions: make(map[*ir.Loop]*RegionSched, len(s.Regions)),
	}
	conv := func(rs *RegionSched) *RegionSched {
		return &RegionSched{Loop: rs.Loop, Groups: rs.Groups, After: append([]Sync(nil), rs.After...)}
	}
	if s.Top != nil {
		out.Top = conv(s.Top)
	}
	for l, rs := range s.Regions {
		out.Regions[l] = conv(rs)
	}
	return out
}

// Boundaries returns a pointer to every boundary record in the global
// site order of Lower — index i is site i+1 — so callers can inspect or (on
// a Clone) rewrite primitives by site id.
func (s *Schedule) Boundaries() []*Sync {
	var out []*Sync
	for _, site := range s.Lower(false).Sites {
		out = append(out, site.Sync)
	}
	return out
}
