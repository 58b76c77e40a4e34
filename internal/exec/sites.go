package exec

import (
	"time"

	"repro/internal/comm"
	"repro/internal/profile"
	"repro/internal/remarks"
	"repro/internal/spmdrt"
	"repro/internal/synctrace"
)

// Mode returns the execution model of the schedule this runner runs.
func (r *Runner) Mode() Mode { return r.mode }

// BarrierName returns the configured barrier algorithm's name.
func (r *Runner) BarrierName() string { return r.cfg.Barrier.String() }

// ChaosSeed returns the configured chaos seed (0 when chaos is off).
func (r *Runner) ChaosSeed() int64 { return r.cfg.ChaosSeed }

// siteKind names the synchronization primitive the profile records for a
// 1-based site id: the scheduled class under SPMD, "barrier" under
// fork-join (where every boundary synchronizes with a barrier regardless
// of the schedule) — matching remarks.Remark.Primitive at the same site.
func (r *Runner) siteKind(id int) string {
	if r.mode == ForkJoin {
		return comm.ClassBarrier.String()
	}
	return r.low.Sites[id-1].Class.String()
}

// SiteJoin is one run's per-site account, folded once: each scheduled
// site's dynamic sync counts (StatsSnapshot.PerSite), inspector statistics
// and, when the run was traced, its rows of the trace summary
// (synctrace.Summarize): the wait distribution and, at a barrier, the
// arrival imbalance. Sites are the global 1-based sync-site ids (the
// remarks, cancellation report, SabotageEdge and certify.DropSite numbering); trace
// site ids are that id minus one, and pseudo-sites beyond the scheduled
// boundaries (fork-join dispatch, relay chains) have no row, so their
// waits show only in the summary's per-kind totals. The profile's site
// records (Profiles) and the sync report's rows (Runtime) are read off it.
type SiteJoin struct {
	sum   *synctrace.Summary // nil when the run was not traced
	sites []joinedSite       // index = site id - 1
}

// joinedSite is one scheduled site's share of the join; kind stays ""
// for a site nothing mentions.
type joinedSite struct {
	kind   string
	counts spmdrt.SiteCounts
	insp   *InspectorSite
	waits  *synctrace.SiteSummary // each site records one blocking kind
	imb    *synctrace.SiteImbalance
}

// Join folds one run of this runner into its per-site account.
func (r *Runner) Join(res *Result) *SiteJoin {
	j := &SiteJoin{sites: make([]joinedSite, r.nSites)}
	var unscheduled joinedSite // what a pseudo-site's row is joined into
	at := func(id int) *joinedSite {
		if id < 1 || id > r.nSites {
			return &unscheduled
		}
		s := &j.sites[id-1]
		s.kind = r.siteKind(id)
		return s
	}
	for id, c := range res.Stats.PerSite {
		at(id).counts = c
	}
	for id, is := range res.Inspector {
		at(id).insp = &is
	}
	if j.sum = synctrace.Summarize(res.Trace); j.sum != nil {
		for i, row := range j.sum.Sites {
			at(int(row.ID) + 1).waits = &j.sum.Sites[i]
		}
		for i, im := range j.sum.Imbalance {
			at(int(im.ID) + 1).imb = &j.sum.Imbalance[i]
		}
	}
	return j
}

// Profiles returns the durable per-site profile records, in ascending site
// id order so no map order reaches the serialized profile. Inspector sites
// carry their scan statistics even when every crossing resolved
// conflict-free (Ops stays 0: no one waited). The wait sketches are built
// here, so a run that only reports builds none.
func (j *SiteJoin) Profiles() []profile.SiteProfile {
	out := make([]profile.SiteProfile, 0, len(j.sites))
	for i, s := range j.sites {
		if s.kind == "" {
			continue
		}
		c := s.counts
		sp := profile.SiteProfile{Site: i + 1, Kind: s.kind,
			Ops: c.Barriers + c.CounterIncrs + c.CounterWaits + c.NeighborWaits}
		if is := s.insp; is != nil {
			sp.Scans, sp.EmptyCrossings = is.Scans, is.EmptyCrossings
			sp.WaitCrossings, sp.Conservative = is.WaitCrossings, is.Conservative
		}
		if row := s.waits; row != nil {
			for _, d := range row.Waits {
				sp.Wait.Add(d)
			}
		}
		if im := s.imb; im != nil {
			sp.Episodes, sp.SlackSumNS = im.Episodes, int64(im.SlackSum)
			sp.MaxSlackNS, sp.LastByWorker = int64(im.MaxSlack), im.LastByWorker
		}
		out = append(out, sp)
	}
	return out
}

// Runtime returns the remark layer's view of the run: per-site rows keyed
// by 1-based site id (counts, wait distribution, barrier straggler) and
// the attribution of worker time to compute and each wait kind (nil when
// the run was not traced).
func (j *SiteJoin) Runtime() (map[int]remarks.SiteRuntime, *remarks.Attribution) {
	out := map[int]remarks.SiteRuntime{}
	for i, s := range j.sites {
		if s.kind == "" {
			continue
		}
		c := s.counts
		sr := remarks.SiteRuntime{Barriers: c.Barriers, CounterIncrs: c.CounterIncrs,
			CounterWaits: c.CounterWaits, NeighborWaits: c.NeighborWaits}
		if row := s.waits; row != nil {
			sr.Waits, sr.TotalWait, sr.P50, sr.P99, sr.Max = row.Count, row.Total, row.P50, row.P99, row.Max
		}
		if im := s.imb; im != nil {
			sr.Straggler = &remarks.Straggler{Worker: im.Straggler, Share: im.StragglerShare}
		}
		out[i+1] = sr
	}
	sum := j.sum
	if sum == nil {
		return out, nil
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
