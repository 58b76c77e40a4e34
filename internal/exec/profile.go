package exec

import (
	"sort"

	"repro/internal/comm"
	"repro/internal/profile"
	"repro/internal/synctrace"
)

// Mode returns the execution model this runner uses.
func (r *Runner) Mode() Mode { return r.cfg.Mode }

// BarrierName returns the configured barrier algorithm's name.
func (r *Runner) BarrierName() string { return r.cfg.Barrier.String() }

// ChaosSeed returns the configured chaos seed (0 when chaos is off).
func (r *Runner) ChaosSeed() int64 { return r.cfg.ChaosSeed }

// siteKind names the synchronization primitive the profile records for a
// 1-based site id: the scheduled class under SPMD, "barrier" under
// fork-join (where every boundary synchronizes with a barrier regardless
// of the schedule) — matching remarks.Remark.Primitive at the same site.
func (r *Runner) siteKind(id int) string {
	if r.cfg.Mode == ForkJoin {
		return comm.ClassBarrier.String()
	}
	return r.low.Sites[id-1].Class.String()
}

// SiteProfiles builds the durable per-site profile records for one traced
// run, keyed by the global 1-based sync-site numbering (the same ids as
// the remarks, StatsSnapshot.PerSite, SabotageEdge and certify.DropSite).
// Dynamic operation counts come from the runtime stats; the wait sketch
// and barrier-imbalance attribution come from a direct pass over the
// trace's surviving events (trace site ids are the 1-based id minus one;
// pseudo-sites beyond the scheduled boundaries are excluded). The result
// is sorted by ascending site id — satellite of the byte-stability
// requirement: no map-iteration order reaches the serialized profile.
func (r *Runner) SiteProfiles(res *Result) []profile.SiteProfile {
	if res == nil {
		return nil
	}
	bySite := map[int]*profile.SiteProfile{}
	get := func(id int) *profile.SiteProfile {
		sp := bySite[id]
		if sp == nil {
			sp = &profile.SiteProfile{Site: id, Kind: r.siteKind(id)}
			bySite[id] = sp
		}
		return sp
	}
	for _, id := range res.Stats.SiteIDs() {
		if id < 1 || id > r.nSites {
			continue
		}
		c := res.Stats.PerSite[id]
		sp := get(id)
		sp.Ops = c.Barriers + c.CounterIncrs + c.CounterWaits + c.NeighborWaits
	}
	// Inspector sites carry their scan statistics even when every
	// crossing resolved conflict-free (Ops stays 0: no one waited).
	for id, is := range res.Inspector {
		if id < 1 || id > r.nSites {
			continue
		}
		sp := get(id)
		sp.Scans = is.Scans
		sp.EmptyCrossings = is.EmptyCrossings
		sp.WaitCrossings = is.WaitCrossings
		sp.Conservative = is.Conservative
	}
	if rec := res.Trace; rec != nil {
		// Barrier arrival tracking per (site, episode): first/last arrival
		// give the episode's slack, the last arrival its straggler.
		type epKey struct {
			site int32
			ep   int64
		}
		type window struct {
			first, last int64
			straggler   int
			seen        int
		}
		episodes := map[epKey]*window{}
		for w := 0; w < rec.Workers(); w++ {
			for _, e := range rec.WorkerEvents(w) {
				id := int(e.Site) + 1
				if id < 1 || id > r.nSites {
					continue
				}
				if e.Kind.Blocking() {
					get(id).Wait.Add(e.Dur())
				}
				if e.Kind == synctrace.EvBarrier {
					k := epKey{e.Site, e.Arg}
					win := episodes[k]
					if win == nil {
						win = &window{first: e.Start, last: e.Start, straggler: w}
						episodes[k] = win
					} else {
						if e.Start < win.first {
							win.first = e.Start
						}
						if e.Start > win.last {
							win.last = e.Start
							win.straggler = w
						}
					}
					win.seen++
				}
			}
		}
		for k, win := range episodes {
			if win.seen < 2 {
				continue // a 1-worker team has no imbalance
			}
			sp := get(int(k.site) + 1)
			slack := win.last - win.first
			sp.Episodes++
			sp.SlackSumNS += slack
			if slack > sp.MaxSlackNS {
				sp.MaxSlackNS = slack
			}
			if sp.LastByWorker == nil {
				sp.LastByWorker = make([]int64, rec.Workers())
			}
			sp.LastByWorker[win.straggler]++
		}
	}
	out := make([]profile.SiteProfile, 0, len(bySite))
	for _, sp := range bySite {
		out = append(out, *sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}
