package exec

import (
	"repro/internal/remarks"
	"repro/internal/synctrace"
)

// SiteRuntimes joins one run's per-site dynamic sync counts
// (StatsSnapshot.PerSite) with the site's row of the trace summary
// (synctrace.Summarize) into the remark layer's runtime view, keyed by
// 1-based sync-site id — the same numbering as the remarks, the watchdog,
// SabotageEdge and certify.DropSite. Trace site ids are 0-based (site id
// minus one); pseudo-sites beyond the scheduled boundaries (fork-join
// dispatch, relay chains) are not sync sites and are excluded.
func (r *Runner) SiteRuntimes(res *Result) map[int]remarks.SiteRuntime {
	out := map[int]remarks.SiteRuntime{}
	if res == nil {
		return out
	}
	for id, c := range res.Stats.PerSite {
		if id >= 1 && id <= r.nSites {
			out[id] = remarks.SiteRuntime{Barriers: c.Barriers, CounterIncrs: c.CounterIncrs,
				CounterWaits: c.CounterWaits, NeighborWaits: c.NeighborWaits}
		}
	}
	if sum := synctrace.Summarize(res.Trace); sum != nil {
		for _, row := range sum.Sites {
			if id := int(row.ID) + 1; id >= 1 && id <= r.nSites {
				sr := out[id]
				sr.Waits, sr.TotalWait, sr.P50, sr.P99, sr.Max = row.Count, row.Total, row.P50, row.P99, row.Max
				out[id] = sr
			}
		}
	}
	return out
}
