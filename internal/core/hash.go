// Profile identity: the content hashes that decide which runs' profiles
// may merge, and the facade assembly of one run's durable profile. The
// program hash keys on the IR (an edited source never merges with its
// ancestor's history); the schedule hash keys on the synchronization
// structure only — site primitives, wait directions, boundary shape — so
// a re-optimized schedule starts a fresh profile lineage while provenance
// churn (dependence notes, rejection reasons) does not.
package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/remarks"
)

// ProgramHash returns the content hash of the compiled program's IR,
// computed once per compilation.
func (c *Compiled) ProgramHash() string {
	c.hashOnce.Do(func() {
		var sb strings.Builder
		ir.Fprint(&sb, c.Prog)
		c.progHash = profile.HashBytes([]byte(sb.String()))
	})
	return c.progHash
}

// scheduleHash canonically renders a remark set's synchronization
// structure and hashes it. One line per site, in site order, covering
// exactly the fields that change runtime behavior.
func scheduleHash(set *remarks.Set) string {
	var sb strings.Builder
	for _, r := range set.Remarks {
		fmt.Fprintf(&sb, "%d:%s:w%t%t:g%d>%d:lb%t:%s\n",
			r.Site, r.Primitive, r.WaitLower, r.WaitUpper,
			r.FromGroup, r.ToGroup, r.LoopBottom, r.Region)
	}
	return profile.HashBytes([]byte(sb.String()))
}

// ScheduleHash returns the synchronization-structure hash of the schedule
// this runner executes (the baseline schedule's for baseline runners),
// computed once per runner: a runner's schedule never changes.
func (r *Runner) ScheduleHash() string {
	r.hashOnce.Do(func() { r.schedHash = scheduleHash(r.Remarks()) })
	return r.schedHash
}

// Profile assembles one traced run's durable sync profile: identity
// hashes, execution configuration, and the per-site records of the run's
// one site join (exec.SiteJoin.Profiles). res must come from this runner.
// The profile has Runs == 1; roll up across runs with profile.Merge. Its
// Workers is the team the run leased (Width), which is P unless the runner
// narrowed: a narrowed run's waits are not P workers' waits.
func (r *Runner) Profile(res *Result) *profile.Profile {
	p := &profile.Profile{
		Schema:       profile.Schema,
		Program:      r.Remarks().Program,
		ProgramHash:  r.c.ProgramHash(),
		ScheduleHash: r.ScheduleHash(),
		Mode:         r.Mode().String(),
		Workers:      r.Width(),
		Backend:      exec.EngineName,
		Barrier:      r.BarrierName(),
		ChaosSeed:    r.ChaosSeed(),
		Runs:         1,
	}
	if res != nil {
		p.Sites = r.join(res).Profiles()
		if res.Trace != nil {
			p.SpanNS = int64(res.Trace.Span())
		} else {
			p.SpanNS = int64(res.Elapsed)
		}
	}
	return p
}

// LedgerRecord assembles the append-only run-ledger payload for one run:
// the profile Do built for it (Run.Profile), the compile's cost bill and
// the result metadata. now is the record's timestamp (time.Now() at the
// call site keeps this package clock-free in tests).
func (res *Result) LedgerRecord(verdict string, now time.Time) *profile.LedgerRecord {
	costs := res.Costs
	rec := &profile.LedgerRecord{
		TimeUnixNS: now.UnixNano(),
		TraceID:    res.TraceID,
		Costs:      &costs,
		Profile:    res.Profile,
		Result:     profile.RunMeta{Verdict: verdict, WallNS: int64(res.Elapsed)},
	}
	if res.State != nil {
		rec.Result.Checksum = fmt.Sprintf("%.10g", res.State.Checksum())
	}
	return rec
}
