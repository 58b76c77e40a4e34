// The static↔runtime join: remarks (why each sync site exists) crossed
// with per-site runtime wait attribution (what each site costs), ranked by
// total observed wait so the most expensive kept synchronization — and the
// compile-time decision behind it — tops the table.
package remarks

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// SiteRuntime is the runtime side of the join for one sync site, merged
// across event kinds. The executor produces one per site that ran; the
// report does not care which layer (stats counters, trace summaries) each
// field came from.
type SiteRuntime struct {
	// Dynamic operation counts from the runtime stats layer.
	Barriers      int64 `json:"barriers,omitempty"`
	CounterIncrs  int64 `json:"counter_incrs,omitempty"`
	CounterWaits  int64 `json:"counter_waits,omitempty"`
	NeighborWaits int64 `json:"neighbor_waits,omitempty"`
	// Wait-time distribution from the sync-event trace (zero when tracing
	// was off or the site never waited).
	Waits     int64         `json:"waits,omitempty"`
	TotalWait time.Duration `json:"total_wait_ns,omitempty"`
	P50       time.Duration `json:"p50_ns,omitempty"`
	P99       time.Duration `json:"p99_ns,omitempty"`
	Max       time.Duration `json:"max_ns,omitempty"`
	// Straggler is, at a barrier site, the worker most often last to
	// arrive (nil at other sites and when tracing was off).
	Straggler *Straggler `json:"straggler,omitempty"`
}

// Ops is the total dynamic sync-operation count at the site.
func (s SiteRuntime) Ops() int64 {
	return s.Barriers + s.CounterIncrs + s.CounterWaits + s.NeighborWaits
}

// Straggler is the worker most often last to arrive at a barrier site and
// the share of the site's episodes it was last in.
type Straggler struct {
	Worker int     `json:"worker"`
	Share  float64 `json:"share"`
}

// Attribution splits a traced run's worker time (P × span) into compute
// and the wait of each blocking event kind, including the fork-join
// dispatch and wavefront-relay waits that belong to no kept site's row.
type Attribution struct {
	WorkerTime time.Duration `json:"worker_time_ns"`
	// Compute is the worker time no wait covers (compute and, on an
	// oversubscribed host, scheduler time).
	Compute time.Duration `json:"compute_ns"`
	Waits   []KindWait    `json:"waits,omitempty"`
	// Dropped counts events the trace rings overwrote; waits undercount
	// when it is above zero.
	Dropped int64 `json:"dropped,omitempty"`
}

// KindWait is one blocking event kind's total wait across the team.
type KindWait struct {
	Kind   string        `json:"kind"`
	Events int64         `json:"events"`
	Wait   time.Duration `json:"wait_ns"`
}

// share is d as a percentage of the worker time.
func (a *Attribution) share(d time.Duration) float64 {
	if a.WorkerTime == 0 {
		return 0
	}
	return 100 * float64(d) / float64(a.WorkerTime)
}

// ReportRow is one kept sync site: the static remark joined to its
// runtime cost.
type ReportRow struct {
	Remark  Remark      `json:"remark"`
	Runtime SiteRuntime `json:"runtime"`
}

// Report is the ranked "cost of kept barriers" table: every sync site
// that retains runtime synchronization, ordered most expensive first.
type Report struct {
	Program string `json:"program"`
	Workers int    `json:"workers"`
	// Rows holds the kept sites ranked by total observed wait (ties by
	// dynamic op count, then site id).
	Rows []ReportRow `json:"rows"`
	// Eliminated counts the sites the optimizer removed entirely — the
	// rows that do NOT appear above.
	Eliminated int `json:"eliminated"`
	// Traced is false when the run had no sync-event trace; wait columns
	// are then all zero and ranking falls back to dynamic counts.
	Traced bool `json:"traced"`
	// Attribution is the run's worker time by compute and wait kind (nil
	// when untraced).
	Attribution *Attribution `json:"attribution,omitempty"`
}

// BuildReport joins a remark set with per-site runtime attribution
// (1-based site ids, as in spmdrt.StatsSnapshot.PerSite) into the ranked
// report headed by the run's attribution (nil when untraced). Sites with no
// runtime entry still appear (a kept site that never executed is itself a
// finding), with zero cost.
func BuildReport(set *Set, rt map[int]SiteRuntime, att *Attribution, workers int) *Report {
	rep := &Report{Workers: workers, Traced: att != nil, Attribution: att}
	if set == nil {
		return rep
	}
	rep.Program = set.Program
	for _, r := range set.Remarks {
		if r.Eliminated() {
			rep.Eliminated++
			continue
		}
		rep.Rows = append(rep.Rows, ReportRow{Remark: r, Runtime: rt[r.Site]})
	}
	sort.SliceStable(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		if a.Runtime.TotalWait != b.Runtime.TotalWait {
			return a.Runtime.TotalWait > b.Runtime.TotalWait
		}
		if a.Runtime.Ops() != b.Runtime.Ops() {
			return a.Runtime.Ops() > b.Runtime.Ops()
		}
		return a.Remark.Site < b.Remark.Site
	})
	return rep
}

// Render prints the report as the human table `spmdrun -report` emits.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sync report: %s  P=%d  kept=%d eliminated=%d\n",
		r.Program, r.Workers, len(r.Rows), r.Eliminated)
	if a := r.Attribution; a == nil {
		sb.WriteString("(no trace: wait columns unavailable; ranked by dynamic count)\n")
	} else {
		fmt.Fprintf(&sb, "worker time %s (P × span): compute %.1f%%",
			a.WorkerTime.Round(time.Microsecond), a.share(a.Compute))
		for _, kw := range a.Waits {
			fmt.Fprintf(&sb, ", %s %.1f%% (%d)", kw.Kind, a.share(kw.Wait), kw.Events)
		}
		if a.Dropped > 0 {
			fmt.Fprintf(&sb, "; %d events dropped by ring wrap", a.Dropped)
		}
		sb.WriteByte('\n')
	}
	if len(r.Rows) == 0 {
		sb.WriteString("no kept sync sites\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "%-5s %-9s %-8s %8s %12s %10s %10s %10s %-9s  %s\n",
		"site", "prim", "pos", "ops", "total_wait", "p50", "p99", "max", "straggler", "why kept")
	for _, row := range r.Rows {
		rt := row.Runtime
		straggler := "-"
		if s := rt.Straggler; s != nil {
			straggler = fmt.Sprintf("w%d %.0f%%", s.Worker, 100*s.Share)
		}
		fmt.Fprintf(&sb, "%-5d %-9s %-8s %8d %12s %10s %10s %10s %-9s  %s\n",
			row.Remark.Site, row.Remark.Primitive, row.Remark.PosString(),
			rt.Ops(), rt.TotalWait, rt.P50, rt.P99, rt.Max, straggler, row.Remark.Why())
		for _, a := range row.Remark.Rejected {
			fmt.Fprintf(&sb, "%-5s rejected %s: %s\n", "", a.Primitive, a.Reason)
		}
	}
	return sb.String()
}
