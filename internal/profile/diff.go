package profile

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// The noise bars of a cross-run comparison. A per-site wait shift only
// counts as a regression (or improvement) when it clears BOTH the relative
// and the absolute bar, and only at sites with enough recorded waits per
// run to be statistically meaningful — scheduler jitter on a time-sliced
// host trivially moves a 3-sample p99 by 2x.
const (
	// minRelative is the minimum relative p99 shift (±50%).
	minRelative = 0.5
	// minAbsolute is the minimum absolute p99 shift.
	minAbsolute = 25 * time.Microsecond
	// minWaits is the minimum per-run recorded waits on the noisier side
	// for a site to be judged at all.
	minWaits = 4
)

// Verdict classifies one site's shift.
type Verdict string

const (
	// VerdictRegression: new p99 wait is above the old beyond thresholds.
	VerdictRegression Verdict = "regression"
	// VerdictImprovement: new p99 wait is below the old beyond thresholds.
	VerdictImprovement Verdict = "improvement"
	// VerdictNoise: the shift is inside the thresholds.
	VerdictNoise Verdict = ""
)

// DiffRow compares one site across the two profiles. Quantiles are
// per-run properties (scale-free); Waits is normalized per run so rollups
// of different sizes compare.
type DiffRow struct {
	Site int    `json:"site"`
	Kind string `json:"kind"`
	// OldP50/OldP99 and NewP50/NewP99 are the sketch quantiles.
	OldP50 time.Duration `json:"old_p50_ns"`
	NewP50 time.Duration `json:"new_p50_ns"`
	OldP99 time.Duration `json:"old_p99_ns"`
	NewP99 time.Duration `json:"new_p99_ns"`
	// OldWaits/NewWaits are recorded waits per run.
	OldWaits int64 `json:"old_waits_per_run"`
	NewWaits int64 `json:"new_waits_per_run"`
	// DeltaP99 = NewP99 - OldP99; RelP99 is DeltaP99 / OldP99 (using the
	// noise floor when OldP99 is zero, so a site that went from silent to
	// expensive still registers).
	DeltaP99 time.Duration `json:"delta_p99_ns"`
	RelP99   float64       `json:"rel_p99"`
	Verdict  Verdict       `json:"verdict,omitempty"`
}

// DiffReport is the ranked regression/improvement table of old vs new.
type DiffReport struct {
	Program string `json:"program"`
	Workers int    `json:"workers"`
	// OldRuns/NewRuns are the run counts behind each side.
	OldRuns int `json:"old_runs"`
	NewRuns int `json:"new_runs"`
	// Rows holds every judged site, ranked by |DeltaP99| descending
	// (regressions and improvements float to the top).
	Rows []DiffRow `json:"rows"`
	// Regressions/Improvements count the non-noise verdicts.
	Regressions  int `json:"regressions"`
	Improvements int `json:"improvements"`
}

// TopRegression returns the largest regression row, or nil.
func (r *DiffReport) TopRegression() *DiffRow {
	for i := range r.Rows {
		if r.Rows[i].Verdict == VerdictRegression {
			return &r.Rows[i]
		}
	}
	return nil
}

// Diff compares two compatible profiles site by site and ranks the
// shifts. old is the baseline (typically a many-run Merge rollup), cand
// the candidate.
func Diff(old, cand *Profile) (*DiffReport, error) {
	if err := old.Compatible(cand); err != nil {
		return nil, err
	}
	rep := &DiffReport{Program: old.Program, Workers: old.Workers,
		OldRuns: old.Runs, NewRuns: cand.Runs}

	ids := map[int]bool{}
	for i := range old.Sites {
		ids[old.Sites[i].Site] = true
	}
	for i := range cand.Sites {
		ids[cand.Sites[i].Site] = true
	}
	sorted := make([]int, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Ints(sorted)

	for _, id := range sorted {
		o, n := old.Site(id), cand.Site(id)
		row := DiffRow{Site: id}
		if o != nil {
			row.Kind = o.Kind
			row.OldP50, row.OldP99 = o.Wait.Quantile(0.50), o.Wait.Quantile(0.99)
			row.OldWaits = o.Wait.Count / int64(old.Runs)
		}
		if n != nil {
			row.Kind = n.Kind
			row.NewP50, row.NewP99 = n.Wait.Quantile(0.50), n.Wait.Quantile(0.99)
			row.NewWaits = n.Wait.Count / int64(cand.Runs)
		}
		row.DeltaP99 = row.NewP99 - row.OldP99
		base := row.OldP99
		if base < minAbsolute {
			// A near-silent baseline would make any shift infinite-relative;
			// judge against the noise floor instead.
			base = minAbsolute
		}
		row.RelP99 = float64(row.DeltaP99) / float64(base)

		waits := row.NewWaits
		if row.DeltaP99 < 0 {
			waits = row.OldWaits // an improvement is judged on what vanished
		}
		abs := row.DeltaP99
		if abs < 0 {
			abs = -abs
		}
		if waits >= minWaits && abs >= minAbsolute {
			switch {
			case row.RelP99 >= minRelative:
				row.Verdict = VerdictRegression
				rep.Regressions++
			case row.RelP99 <= -minRelative:
				row.Verdict = VerdictImprovement
				rep.Improvements++
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	sort.SliceStable(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		av, bv := a.Verdict != VerdictNoise, b.Verdict != VerdictNoise
		if av != bv {
			return av
		}
		ad, bd := a.DeltaP99, b.DeltaP99
		if ad < 0 {
			ad = -ad
		}
		if bd < 0 {
			bd = -bd
		}
		if ad != bd {
			return ad > bd
		}
		return a.Site < b.Site
	})
	return rep, nil
}

// Render prints the ranked table `spmdprof diff` emits.
func (r *DiffReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile diff: %s  P=%d  old=%d run(s) new=%d run(s)  regressions=%d improvements=%d\n",
		r.Program, r.Workers, r.OldRuns, r.NewRuns, r.Regressions, r.Improvements)
	fmt.Fprintf(&sb, "(thresholds: |Δp99| ≥ %s and ≥ %.0f%%, ≥ %d waits/run)\n",
		minAbsolute, minRelative*100, minWaits)
	if len(r.Rows) == 0 {
		sb.WriteString("no sites to compare\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "%-5s %-9s %12s %12s %12s %12s %9s %8s  %s\n",
		"site", "kind", "old_p50", "new_p50", "old_p99", "new_p99", "Δp99", "rel", "verdict")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-5d %-9s %12s %12s %12s %12s %9s %+7.0f%%  %s\n",
			row.Site, row.Kind, rdur(row.OldP50), rdur(row.NewP50),
			rdur(row.OldP99), rdur(row.NewP99), rdur(row.DeltaP99), row.RelP99*100,
			row.Verdict)
	}
	return sb.String()
}

// rdur rounds a duration for table display.
func rdur(d time.Duration) time.Duration {
	neg := d < 0
	if neg {
		d = -d
	}
	switch {
	case d >= time.Second:
		d = d.Round(time.Millisecond)
	case d >= time.Millisecond:
		d = d.Round(10 * time.Microsecond)
	default:
		d = d.Round(100 * time.Nanosecond)
	}
	if neg {
		return -d
	}
	return d
}
