package exec

import (
	"time"

	"repro/internal/remarks"
	"repro/internal/synctrace"
)

// SyncRuntime is the remark layer's runtime view of one run, from one
// trace fold (synctrace.Summarize): per-site rows that join the site's
// dynamic sync counts (StatsSnapshot.PerSite) with its wait distribution
// and, at a barrier, its straggler, keyed by 1-based sync-site id — the
// same numbering as the remarks, the watchdog, SabotageEdge and
// certify.DropSite — and the run's attribution of worker time (nil when
// the run was not traced). Trace site ids are 0-based (site id minus one);
// pseudo-sites beyond the scheduled boundaries (fork-join dispatch, relay
// chains) have no row, and their waits show only in the attribution.
func (r *Runner) SyncRuntime(res *Result) (map[int]remarks.SiteRuntime, *remarks.Attribution) {
	out := map[int]remarks.SiteRuntime{}
	if res == nil {
		return out, nil
	}
	for id, c := range res.Stats.PerSite {
		if id >= 1 && id <= r.nSites {
			out[id] = remarks.SiteRuntime{Barriers: c.Barriers, CounterIncrs: c.CounterIncrs,
				CounterWaits: c.CounterWaits, NeighborWaits: c.NeighborWaits}
		}
	}
	sum := synctrace.Summarize(res.Trace)
	if sum == nil {
		return out, nil
	}
	for _, row := range sum.Sites {
		if id := int(row.ID) + 1; id >= 1 && id <= r.nSites {
			sr := out[id]
			sr.Waits, sr.TotalWait, sr.P50, sr.P99, sr.Max = row.Count, row.Total, row.P50, row.P99, row.Max
			out[id] = sr
		}
	}
	for _, im := range sum.Imbalance {
		if id := int(im.ID) + 1; id >= 1 && id <= r.nSites {
			sr := out[id]
			sr.Straggler = &remarks.Straggler{Worker: im.Straggler, Share: im.StragglerShare}
			out[id] = sr
		}
	}
	att := &remarks.Attribution{WorkerTime: time.Duration(sum.Workers) * sum.Span, Dropped: sum.Dropped}
	att.Compute = att.WorkerTime - sum.TotalWait()
	for k, kt := range sum.ByKind {
		if kind := synctrace.Kind(k); kind.Blocking() && kt.Count > 0 {
			att.Waits = append(att.Waits, remarks.KindWait{Kind: kind.String(), Events: kt.Count, Wait: kt.Wait})
		}
	}
	return out, att
}
