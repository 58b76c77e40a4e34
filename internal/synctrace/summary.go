package synctrace

import (
	"sort"
	"time"
)

// Summary aggregates one run's trace: per-site wait-time distributions,
// per-kind totals (the attribution of worker time to compute vs. each
// synchronization kind) and barrier arrival imbalance. It is the one fold
// over a trace's events: the executor's per-site profiles and the sync
// report's header and rows are read off it.
type Summary struct {
	Workers int
	// Span is the wall-clock interval covered by the trace.
	Span time.Duration
	// Dropped counts ring-overwritten events.
	Dropped int64
	// ByKind sums wait time and event counts per kind (index by Kind).
	ByKind [numKinds]KindTotal
	// Sites holds one entry per (site, kind) pair that recorded blocking
	// waits, sorted by total wait descending. The executor's sites each
	// record one blocking kind, so a scheduled site has at most one row.
	Sites []SiteSummary
	// Imbalance holds per-barrier-site arrival-slack profiles.
	Imbalance []SiteImbalance
}

// KindTotal is the aggregate for one event kind.
type KindTotal struct {
	Count int64
	Wait  time.Duration // zero for non-blocking kinds
}

// SiteSummary is the wait-time distribution of one (site, kind) pair.
type SiteSummary struct {
	ID    int32
	Kind  Kind
	Count int64
	Total time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
	// Waits holds every wait, ascending.
	Waits []time.Duration
}

// SiteImbalance profiles barrier arrival slack at one site: for each
// episode, slack is the gap between the first and the last arrival, and
// the straggler is the last-arriving worker.
type SiteImbalance struct {
	ID       int32
	Episodes int64
	SlackSum time.Duration // exact, so profiles merge it across runs
	MaxSlack time.Duration
	// Straggler is the worker most often last to arrive, with the share
	// of episodes it was last in.
	Straggler      int
	StragglerShare float64
	// LastByWorker counts, per worker, episodes in which it arrived last.
	LastByWorker []int64
}

// TotalWait sums blocking wait time over all kinds and workers.
func (s *Summary) TotalWait() time.Duration {
	var t time.Duration
	for _, kt := range s.ByKind {
		t += kt.Wait
	}
	return t
}

// Summarize aggregates the recorder's surviving events. Call only after
// the team has quiesced.
func Summarize(r *Recorder) *Summary {
	if r == nil {
		return nil
	}
	s := &Summary{Workers: r.Workers(), Span: r.Span(), Dropped: r.Dropped()}

	type siteKey struct {
		id   int32
		kind Kind
	}
	durs := map[siteKey][]time.Duration{}
	// Barrier arrival times per (site, episode): arrival is Start.
	type epKey struct {
		id int32
		ep int64
	}
	type arrival struct {
		worker int
		at     int64
	}
	arrivals := map[epKey][]arrival{}

	for w := 0; w < r.Workers(); w++ {
		for _, e := range r.WorkerEvents(w) {
			s.ByKind[e.Kind].Count++
			if e.Kind.Blocking() {
				d := e.Dur()
				s.ByKind[e.Kind].Wait += d
				durs[siteKey{e.Site, e.Kind}] = append(durs[siteKey{e.Site, e.Kind}], d)
			}
			if e.Kind == EvBarrier {
				k := epKey{e.Site, e.Arg}
				arrivals[k] = append(arrivals[k], arrival{w, e.Start})
			}
		}
	}

	for k, ds := range durs {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		ss := SiteSummary{ID: k.id, Kind: k.kind, Count: int64(len(ds)), Max: ds[len(ds)-1],
			P50: quantile(ds, 0.50), P99: quantile(ds, 0.99), Waits: ds}
		for _, d := range ds {
			ss.Total += d
		}
		s.Sites = append(s.Sites, ss)
	}
	sort.Slice(s.Sites, func(i, j int) bool {
		if s.Sites[i].Total != s.Sites[j].Total {
			return s.Sites[i].Total > s.Sites[j].Total
		}
		if s.Sites[i].ID != s.Sites[j].ID {
			return s.Sites[i].ID < s.Sites[j].ID
		}
		return s.Sites[i].Kind < s.Sites[j].Kind
	})

	imb := map[int32]*SiteImbalance{}
	for k, as := range arrivals {
		if len(as) < 2 {
			continue // a 1-worker team has no imbalance
		}
		first, last := as[0], as[0]
		for _, a := range as[1:] {
			if a.at < first.at {
				first = a
			}
			if a.at > last.at {
				last = a
			}
		}
		si := imb[k.id]
		if si == nil {
			si = &SiteImbalance{ID: k.id, LastByWorker: make([]int64, r.Workers())}
			imb[k.id] = si
		}
		slack := time.Duration(last.at - first.at)
		si.Episodes++
		si.SlackSum += slack
		if slack > si.MaxSlack {
			si.MaxSlack = slack
		}
		si.LastByWorker[last.worker]++
	}
	for _, si := range imb {
		for w, c := range si.LastByWorker {
			if c > si.LastByWorker[si.Straggler] {
				si.Straggler = w
			}
		}
		si.StragglerShare = float64(si.LastByWorker[si.Straggler]) / float64(si.Episodes)
		s.Imbalance = append(s.Imbalance, *si)
	}
	sort.Slice(s.Imbalance, func(i, j int) bool { return s.Imbalance[i].ID < s.Imbalance[j].ID })
	return s
}

// quantile returns the q-quantile of an ascending-sorted slice (nearest
// rank).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	i := int(q*float64(len(ds)-1) + 0.5)
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}
