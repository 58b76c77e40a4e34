package suite

import (
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/remarks"
)

// TestSiteNumberingAgreement pins the cross-layer site-id contract for
// every suite kernel: the optimizer's remarks, the executor's sync sites
// (the counter-label/SabotageEdge/StatsSnapshot.PerSite numbering), and the
// certifier's Sites/DropSite indexing must all describe the same boundary
// under the same 1-based id, with the same primitive. A sanitized run then
// checks the runtime side: per-site dynamic counts land only on sites the
// remarks say were kept, with the event kind the remark's primitive
// predicts.
func TestSiteNumberingAgreement(t *testing.T) {
	for _, k := range append(Kernels(), IrregularKernels()...) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			runner, err := c.NewRunner(exec.Config{
				Workers: 4, Params: k.Params, Sanitize: true,
				Trace: true})
			if err != nil {
				t.Fatal(err)
			}

			set := c.Remarks()
			low := c.Schedule.Lower() // the step program the runner runs
			n := len(low.Sites)
			if len(set.Remarks) != n {
				t.Fatalf("remarks: %d, executor sync sites: %d", len(set.Remarks), n)
			}
			cs := core.ToCertify(c.Schedule.Lower())
			kinds := siteKinds(cs)
			if len(kinds) != n {
				t.Fatalf("certifier sites: %d, executor sync sites: %d", len(kinds), n)
			}
			for i, r := range set.Remarks {
				if r.Site != i+1 {
					t.Errorf("remark %d carries site id %d", i, r.Site)
				}
				if r.Primitive != low.Sites[i].Class.String() {
					t.Errorf("site %d: remark says %s, executor schedules %s",
						r.Site, r.Primitive, low.Sites[i].Class)
				}
				if r.Primitive != kinds[i].String() {
					t.Errorf("site %d: remark says %s, certifier sees %s",
						r.Site, r.Primitive, kinds[i])
				}
			}

			// DropSite must demote exactly the boundary the remark id names.
			for i := range kinds {
				dropped := siteKinds(cs.DropSite(i))
				for j, kd := range dropped {
					want := kinds[j]
					if j == i {
						want = certify.KindNone
					}
					if kd != want {
						t.Errorf("DropSite(%d): site %d is %s, want %s", i, j+1, kd, want)
					}
				}
			}

			// Runtime: dynamic per-site counts attribute only to in-range
			// sites, never to eliminated ones, and with the event kind the
			// remark's primitive predicts. (Ids beyond n are runtime
			// pseudo-sites — reductions, broadcasts — with no remark.)
			res, err := runner.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Sanitizer == nil || !res.Sanitizer.Clean() {
				t.Fatalf("sanitizer: %v", res.Sanitizer)
			}
			for id, sc := range res.Stats.PerSite {
				if id < 1 {
					t.Errorf("per-site counts for invalid site id %d", id)
					continue
				}
				if id > n {
					continue
				}
				r := &set.Remarks[id-1]
				if r.Eliminated() {
					t.Errorf("site %d eliminated by the optimizer but executed %+v", id, sc)
					continue
				}
				switch r.Primitive {
				case remarks.PrimBarrier:
					if sc.CounterIncrs+sc.CounterWaits+sc.NeighborWaits != 0 {
						t.Errorf("barrier site %d executed non-barrier events %+v", id, sc)
					}
				case remarks.PrimCounter:
					if sc.Barriers+sc.NeighborWaits != 0 {
						t.Errorf("counter site %d executed non-counter events %+v", id, sc)
					}
				case remarks.PrimNeighbor:
					if sc.Barriers+sc.CounterIncrs+sc.CounterWaits != 0 {
						t.Errorf("neighbor site %d executed non-neighbor events %+v", id, sc)
					}
				case remarks.PrimInspector:
					// Inspector waits are point-to-point (counted as
					// neighbor waits); the site never runs a barrier or
					// counter episode.
					if sc.Barriers+sc.CounterIncrs+sc.CounterWaits != 0 {
						t.Errorf("inspector site %d executed non-inspector events %+v", id, sc)
					}
				}
			}

			// Inspector stats share the sync-site numbering: every entry
			// names an inspector site, and every inspector site reports.
			for id := range res.Inspector {
				if id < 1 || id > n {
					t.Errorf("inspector stats for invalid site id %d", id)
					continue
				}
				if r := &set.Remarks[id-1]; r.Primitive != remarks.PrimInspector {
					t.Errorf("inspector stats recorded at %s site %d", r.Primitive, id)
				}
			}
			for i, r := range set.Remarks {
				if r.Primitive != remarks.PrimInspector {
					continue
				}
				if _, ok := res.Inspector[i+1]; !ok {
					t.Errorf("inspector site %d reported no inspector stats", i+1)
				}
			}

			// Profile: the durable per-site records must use the same ids
			// and primitives as the remarks (acceptance: profile site ids
			// identical to remarks/certifier numbering). Ops must match the
			// runtime stats exactly, and no eliminated or pseudo-site may
			// leak into the profile.
			prof := runner.Profile(res)
			for i := range prof.Sites {
				sp := &prof.Sites[i]
				if sp.Site < 1 || sp.Site > n {
					t.Errorf("profile records out-of-range site id %d (schedule has %d)", sp.Site, n)
					continue
				}
				if i > 0 && prof.Sites[i-1].Site >= sp.Site {
					t.Errorf("profile sites not strictly ascending at index %d", i)
				}
				r := &set.Remarks[sp.Site-1]
				if r.Eliminated() {
					t.Errorf("profile records eliminated site %d", sp.Site)
					continue
				}
				if sp.Kind != r.Primitive {
					t.Errorf("site %d: profile kind %q, remark primitive %q",
						sp.Site, sp.Kind, r.Primitive)
				}
				sc := res.Stats.PerSite[sp.Site]
				if ops := sc.Barriers + sc.CounterIncrs + sc.CounterWaits + sc.NeighborWaits; sp.Ops != ops {
					t.Errorf("site %d: profile ops %d, stats ops %d", sp.Site, sp.Ops, ops)
				}
			}
			if prof.ProgramHash == "" || prof.ScheduleHash == "" {
				t.Error("profile identity hashes empty")
			}

			// Baseline remarks must carry the baseline runner's numbering
			// and real positions (the satellite fix: the fork-join join
			// barrier is a first-class site, not an anonymous reason).
			bset := c.Baseline.Remarks()
			if n := len(c.Baseline.Lower().Sites); len(bset.Remarks) != n {
				t.Fatalf("baseline remarks: %d, baseline sync sites: %d", len(bset.Remarks), n)
			}
			for i, r := range bset.Remarks {
				if r.Site != i+1 {
					t.Errorf("baseline remark %d carries site id %d", i, r.Site)
				}
				if r.Primitive == remarks.PrimBarrier && (r.Line == 0 || r.Col == 0) {
					t.Errorf("baseline barrier site %d has no source position", r.Site)
				}
			}
		})
	}
}

// siteKinds returns the boundary kind at every site of p, indexed by site id.
func siteKinds(p *certify.Program) []certify.Kind {
	out := make([]certify.Kind, len(p.Sites))
	for i, s := range p.Sites {
		out[i] = s.Kind
	}
	return out
}
