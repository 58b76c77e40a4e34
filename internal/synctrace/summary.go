package synctrace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Summary aggregates one run's trace into the report spmdrun prints and
// the suite's wait-decomposition table consumes: per-site wait-time
// distributions, per-kind totals, barrier arrival imbalance, and a
// critical-path-style attribution of worker time to compute vs. each
// synchronization kind. It is the one fold over a trace's events: the
// executor's per-site profiles and report columns are read off its rows.
type Summary struct {
	Workers int
	// Span is the wall-clock interval covered by the trace.
	Span time.Duration
	// Events and Dropped count recorded vs. ring-overwritten events.
	Events, Dropped int64
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

// histBuckets is the number of power-of-two latency buckets in a wait
// histogram: <1µs, <2µs, ... , <2048µs, and a final >=2048µs bucket.
const histBuckets = 13

// SiteSummary is the wait-time distribution of one (site, kind) pair.
type SiteSummary struct {
	ID    int32
	Name  string
	Kind  Kind
	Count int64
	Total time.Duration
	Min   time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
	// Hist counts waits per power-of-two microsecond bucket.
	Hist [histBuckets]int64
	// Waits holds every wait, ascending.
	Waits []time.Duration
}

// SiteImbalance profiles barrier arrival slack at one site: for each
// episode, slack is the gap between the first and the last arrival, and
// the straggler is the last-arriving worker.
type SiteImbalance struct {
	ID        int32
	Name      string
	Episodes  int64
	SlackSum  time.Duration // exact, so profiles merge it across runs
	MeanSlack time.Duration
	MaxSlack  time.Duration
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
	s := &Summary{Workers: r.Workers(), Span: r.Span(),
		Events: r.Recorded(), Dropped: r.Dropped()}

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
		ss := SiteSummary{ID: k.id, Name: r.SiteName(k.id), Kind: k.kind,
			Count: int64(len(ds)), Min: ds[0], Max: ds[len(ds)-1],
			P50: quantile(ds, 0.50), P99: quantile(ds, 0.99), Waits: ds}
		for _, d := range ds {
			ss.Total += d
			ss.Hist[histBucket(d)]++
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
			si = &SiteImbalance{ID: k.id, Name: r.SiteName(k.id),
				LastByWorker: make([]int64, r.Workers())}
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
		si.MeanSlack = si.SlackSum / time.Duration(si.Episodes)
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

// histBucket maps a duration to its power-of-two microsecond bucket.
func histBucket(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us > 0 && b < histBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// sparkline renders bucket counts as an 8-level unicode bar per bucket.
func sparkline(h [histBuckets]int64) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	var max int64
	for _, c := range h {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return strings.Repeat(" ", histBuckets)
	}
	var sb strings.Builder
	for _, c := range h {
		if c == 0 {
			sb.WriteRune('·')
			continue
		}
		lvl := int((c*int64(len(levels)-1) + max - 1) / max)
		sb.WriteRune(levels[lvl])
	}
	return sb.String()
}

// String renders the full text report: attribution, per-site wait table
// and barrier-imbalance profiles.
func (s *Summary) String() string {
	if s == nil {
		return "(no trace)"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace summary: P=%d span=%s events=%d", s.Workers, rd(s.Span), s.Events)
	if s.Dropped > 0 {
		fmt.Fprintf(&sb, " (%d dropped by ring wrap — raise the trace buffer)", s.Dropped)
	}
	sb.WriteByte('\n')

	// Attribution: P workers × span gives total worker-time; blocking
	// waits are subtracted per kind, the remainder is compute (plus, on
	// oversubscribed hosts, scheduler time — see docs/TRACING.md).
	total := time.Duration(s.Workers) * s.Span
	wait := s.TotalWait()
	fmt.Fprintf(&sb, "attribution over %s worker-time (P × span):\n", rd(total))
	pct := func(d time.Duration) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(d) / float64(total)
	}
	fmt.Fprintf(&sb, "  %-16s %10s %6.1f%%\n", "compute+other", rd(total-wait), pct(total-wait))
	for k := Kind(0); k < numKinds; k++ {
		kt := s.ByKind[k]
		if kt.Count == 0 {
			continue
		}
		if k.Blocking() {
			fmt.Fprintf(&sb, "  %-16s %10s %6.1f%%  (%d events)\n", k, rd(kt.Wait), pct(kt.Wait), kt.Count)
		} else {
			fmt.Fprintf(&sb, "  %-16s %10s %6s   (%d events)\n", k, "-", "", kt.Count)
		}
	}

	if len(s.Sites) > 0 {
		fmt.Fprintf(&sb, "per-site wait (histogram buckets: <1µs ×2 each … ≥2ms):\n")
		fmt.Fprintf(&sb, "  %-28s %-14s %6s %10s %9s %9s %9s  %s\n",
			"site", "kind", "count", "total", "p50", "p99", "max", "histogram")
		for _, ss := range s.Sites {
			fmt.Fprintf(&sb, "  %-28s %-14s %6d %10s %9s %9s %9s  |%s|\n",
				ss.Name, ss.Kind, ss.Count, rd(ss.Total), rd(ss.P50), rd(ss.P99), rd(ss.Max),
				sparkline(ss.Hist))
		}
	}
	if len(s.Imbalance) > 0 {
		fmt.Fprintf(&sb, "barrier imbalance (arrival slack, last-arrival straggler):\n")
		for _, si := range s.Imbalance {
			fmt.Fprintf(&sb, "  %-28s episodes=%-5d mean-slack=%-9s max-slack=%-9s straggler=w%d (last in %.0f%%)\n",
				si.Name, si.Episodes, rd(si.MeanSlack), rd(si.MaxSlack),
				si.Straggler, si.StragglerShare*100)
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}

// rd rounds durations for display.
func rd(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(100 * time.Nanosecond)
	}
}
