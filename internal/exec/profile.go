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
// and barrier-imbalance attribution come from the site's rows of the trace
// summary (synctrace.Summarize; trace site ids are the 1-based id minus
// one, and pseudo-sites beyond the scheduled boundaries are excluded). The
// result is sorted by ascending site id — satellite of the byte-stability
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
	for id, c := range res.Stats.PerSite {
		if id >= 1 && id <= r.nSites {
			get(id).Ops = c.Barriers + c.CounterIncrs + c.CounterWaits + c.NeighborWaits
		}
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
	if sum := synctrace.Summarize(res.Trace); sum != nil {
		for _, row := range sum.Sites {
			if id := int(row.ID) + 1; id >= 1 && id <= r.nSites {
				sp := get(id)
				for _, d := range row.Waits {
					sp.Wait.Add(d)
				}
			}
		}
		for _, im := range sum.Imbalance {
			if id := int(im.ID) + 1; id >= 1 && id <= r.nSites {
				sp := get(id)
				sp.Episodes, sp.SlackSumNS = im.Episodes, int64(im.SlackSum)
				sp.MaxSlackNS, sp.LastByWorker = int64(im.MaxSlack), im.LastByWorker
			}
		}
	}
	out := make([]profile.SiteProfile, 0, len(bySite))
	for _, sp := range bySite {
		out = append(out, *sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}
