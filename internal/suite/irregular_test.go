package suite

import (
	"strings"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/remarks"
	"repro/internal/syncopt"
)

// TestIrregularGoldenStaticCounts pins the static synchronization profile
// of the irregular suite, including the two tiers this suite exists for:
// boundaries eliminated outright by value facts (none) and boundaries
// downgraded to runtime inspector scans. Any analysis change that shifts
// these numbers must be intentional.
func TestIrregularGoldenStaticCounts(t *testing.T) {
	type counts struct{ baseBarr, barr, ctr, insp, none, flows int }
	golden := map[string]counts{
		// permcopy: content fact P(k)=k turns B(P(i)) affine — both
		// in-loop boundaries vanish; the guarded setup keeps a counter.
		"permcopy": {3, 0, 1, 0, 2, 1},
		// gatherscatter: g is monotone range-capped, not provably
		// injective — both in-loop boundaries become inspector scans.
		"gatherscatter": {3, 0, 1, 2, 1, 5},
		// spmvcsr: rp content closes the row loop bounds; x reads
		// through cl stay data-dependent — inspectors in the loop, one
		// barrier where setup counters and init inspector flows mix.
		"spmvcsr": {4, 1, 0, 2, 1, 4},
		// meshsmooth: neighbor-table gather, range-only — inspectors in
		// the loop, the guarded table build keeps a counter.
		"meshsmooth": {4, 0, 1, 2, 1, 4},
		// edgerelax: dst rotation map, range-only — inspectors in the
		// loop, entry barrier for the mixed init flows.
		"edgerelax": {4, 1, 0, 2, 1, 5},
	}
	for _, k := range IrregularKernels() {
		k := k
		want, ok := golden[k.Name]
		if !ok {
			t.Errorf("kernel %s missing from golden table", k.Name)
			continue
		}
		t.Run(k.Name, func(t *testing.T) {
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			v := c.Verdict()
			cert, viols, err := v.Certificate, v.Violations, v.Err
			if err != nil {
				t.Fatalf("certifier oracle: %v", err)
			}
			if len(viols) != 0 {
				t.Fatalf("certifier rejected the schedule:\n%s", certify.RenderViolations(viols))
			}
			st, bst := c.Schedule.Static(), c.Baseline.Static()
			got := counts{bst.Barriers, st.Barriers, st.Counters,
				st.Inspectors, st.None, len(cert.Flows)}
			if got != want {
				t.Errorf("static counts = %+v, want %+v\n%s", got, want, c.Schedule.Dump())
			}
			if errs := syncopt.Verify(c.Analyzer, c.Schedule); len(errs) != 0 {
				t.Errorf("verification: %v", errs[0])
			}

			// Every flow a KindInspector boundary orders must be certified
			// conditionally (on the runtime scan's conflict resolution),
			// and inspector-heavy kernels must actually have such flows.
			conditional := 0
			inspector := certify.KindInspector.String()
			for _, f := range cert.Flows {
				for _, ob := range f.OrderedBy {
					if ob.Primitive == inspector && !ob.Conditional {
						t.Errorf("flow %s g%d->g%d: inspector-ordered but not conditional",
							f.Region, f.From, f.To)
					}
					if ob.Conditional && ob.Primitive != inspector {
						t.Errorf("flow %s g%d->g%d: conditional under %s",
							f.Region, f.From, f.To, ob.Primitive)
					}
					if ob.Conditional {
						conditional++
					}
				}
			}
			if want.insp > 0 && conditional == 0 {
				t.Errorf("schedule has %d inspector sites but no conditionally certified flow", want.insp)
			}
		})
	}
}

// TestIrregularBarrierElimination is the suite's acceptance measurement:
// on the irregular kernels the optimizer must eliminate at least half of
// the baseline's dynamic barrier crossings (it does far better — the
// time-stepped crossings all become eliminated boundaries or inspector
// scans), with results matching the sequential interpreter.
func TestIrregularBarrierElimination(t *testing.T) {
	ms, err := MeasureIrregAll(MeasureOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, m := range ms {
		red := m.BarrierReduction()
		sum += red
		t.Logf("%s: base %d -> opt %d barriers (%.1f%%), inspector %v",
			m.Kernel.Name, m.DynBase.Barriers, m.DynOpt.Barriers, red*100, m.Inspector)
		if red < 0.5 {
			t.Errorf("%s: dynamic barrier reduction %.1f%% < 50%%", m.Kernel.Name, red*100)
		}
		if m.MaxDiff > m.Kernel.Tol {
			t.Errorf("%s: diverges from sequential by %g", m.Kernel.Name, m.MaxDiff)
		}
		if m.StaticOpt.Inspectors > 0 {
			if len(m.Inspector) != m.StaticOpt.Inspectors {
				t.Errorf("%s: %d inspector sites scheduled, %d reported stats",
					m.Kernel.Name, m.StaticOpt.Inspectors, len(m.Inspector))
			}
			for id, is := range m.Inspector {
				if is.Conservative != 0 {
					t.Errorf("%s site %d: %d conservative scan fallbacks (pairs should be evaluable)",
						m.Kernel.Name, id, is.Conservative)
				}
				if is.Scans == 0 {
					t.Errorf("%s site %d: inspector never scanned", m.Kernel.Name, id)
				}
			}
		} else if len(m.Inspector) != 0 {
			t.Errorf("%s: no inspector sites scheduled but stats reported: %v",
				m.Kernel.Name, m.Inspector)
		}
	}
	if mean := sum / float64(len(ms)); mean < 0.5 {
		t.Errorf("mean dynamic barrier reduction %.1f%% < 50%%", mean*100)
	}

	// The two behavioral poles of the inspector tier: gatherscatter's
	// identity-in-practice map certifies "no conflict, skip" on every
	// crossing; edgerelax's rotation map forces point-to-point waits.
	for _, m := range ms {
		var empty, waits int64
		for _, is := range m.Inspector {
			empty += is.EmptyCrossings
			waits += is.WaitCrossings
		}
		switch m.Kernel.Name {
		case "gatherscatter":
			if empty == 0 || waits != 0 {
				t.Errorf("gatherscatter: want all-empty crossings, got empty=%d waits=%d", empty, waits)
			}
		case "edgerelax", "spmvcsr", "meshsmooth":
			if waits == 0 {
				t.Errorf("%s: want conflicting crossings with p2p waits, got empty=%d waits=%d",
					m.Kernel.Name, empty, waits)
			}
			if m.DynOpt.NeighborWaits == 0 {
				t.Errorf("%s: inspector waits executed but no p2p waits counted", m.Kernel.Name)
			}
		}
	}
}

// TestIrregularRemarkEvidence checks the remark layer's irregular story:
// statically-eliminated boundaries carry the value facts (content, range,
// monotonicity) that justified elimination, and every inspector boundary
// records both its facts and the inspector rung of the decision ladder.
func TestIrregularRemarkEvidence(t *testing.T) {
	wantFacts := map[string][]string{
		"permcopy":      {"content P(k) = k on [1, N]", "P strictly increasing", "P permutation of [1, N]"},
		"gatherscatter": {"range g(k) in [1, N]"},
		"spmvcsr":       {"content rp(k) = 2*k - 1 on [1, N + 1]", "rp strictly increasing", "range cl(k) in [1, N]"},
		"meshsmooth":    {"range nb(k) in [1, N]"},
		"edgerelax":     {"range dst(k) in [1, N]"},
	}
	for _, k := range IrregularKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			set := c.Remarks()
			facts := irregFacts(set)
			for _, want := range wantFacts[k.Name] {
				found := false
				for _, f := range facts {
					if f == want {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("remark facts missing %q; have %v", want, facts)
				}
			}
			for _, r := range set.Remarks {
				switch r.Primitive {
				case remarks.PrimNone:
					// Eliminated boundaries on the irregular path carry
					// their eliminated-pair dependences with evidence.
					for _, d := range r.Deps {
						if d.Class == remarks.PrimNone && len(d.Irreg) == 0 &&
							usesIrregularArray(d, wantFacts[k.Name]) {
							t.Errorf("site %d: eliminated dep %s %s has no irregular evidence",
								r.Site, d.Var, d.Kind)
						}
					}
				case remarks.PrimInspector:
					hasEvidence := false
					for _, d := range r.Deps {
						if len(d.Irreg) > 0 {
							hasEvidence = true
						}
					}
					if !hasEvidence {
						t.Errorf("inspector site %d carries no irregular evidence", r.Site)
					}
				}
			}
		})
	}
}

// irregFacts collects the deduplicated irregular value facts recorded on
// a remark set's dependences, in first-appearance order.
func irregFacts(set *remarks.Set) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range set.Remarks {
		for _, d := range r.Deps {
			for _, f := range d.Irreg {
				if !seen[f] {
					seen[f] = true
					out = append(out, f)
				}
			}
		}
	}
	return out
}

// usesIrregularArray reports whether the dependence's variable appears in
// any of the kernel's expected facts (a cheap proxy for "this pair went
// through an index array").
func usesIrregularArray(d remarks.Dependence, facts []string) bool {
	for _, f := range facts {
		if strings.Contains(f, "("+d.Var+"(") || strings.Contains(d.Src.Ref, arrayOfFact(f)+"(") {
			return true
		}
	}
	return false
}

// arrayOfFact extracts the array name from a fact string like
// "range g(k) in [1, N]".
func arrayOfFact(f string) string {
	fields := strings.Fields(f)
	for _, w := range fields {
		if i := strings.IndexByte(w, '('); i > 0 {
			return w[:i]
		}
	}
	return ""
}

// TestIrregularChaosSanitized stress-tests the inspector executor under
// adversarial thread timing: chaos-injected runs with the vector-clock
// sanitizer on, at worker counts that split the index spaces unevenly.
// The sanitizer sees every shared access and every executed sync edge, so
// a scan that under-synchronizes (misses a conflicting pair, wrong
// partner set, carried-iteration confusion) surfaces as a violation even
// when the numeric result happens to survive.
func TestIrregularChaosSanitized(t *testing.T) {
	for _, k := range IrregularKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			params := map[string]int64{"N": 193, "T": 6}
			ref, err := c.RunSequential(params)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{3, 5, 8} {
				for seed := int64(1); seed <= 3; seed++ {
					r, err := c.NewRunner(exec.Config{
						Workers: w, Params: params,
						Sanitize: true, ChaosSeed: seed})
					if err != nil {
						t.Fatal(err)
					}
					res, err := r.Run()
					if err != nil {
						t.Fatalf("W=%d seed=%d: %v", w, seed, err)
					}
					if res.Sanitizer == nil || !res.Sanitizer.Clean() {
						t.Fatalf("W=%d seed=%d sanitizer: %v", w, seed, res.Sanitizer)
					}
					if d := exec.ComparableDiff(ref, res.State, c.Prog); d > k.Tol {
						t.Fatalf("W=%d seed=%d: diverges from sequential by %g", w, seed, d)
					}
				}
			}
		})
	}
}

// TestIrregularDropSite checks the certifier's inspector-aware soundness
// oracle end to end: dropping any kept (non-eliminated) site of an
// irregular schedule must produce a certification violation — an
// unrelated downstream inspector must never mask the missing edge (the
// scan-pair inclusion rule).
func TestIrregularDropSite(t *testing.T) {
	for _, k := range IrregularKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cs := core.ToCertify(c.Schedule.Lower())
			kinds := siteKinds(cs)
			for i, kind := range kinds {
				if kind == certify.KindNone {
					continue
				}
				_, viols, err := certify.Certify(c.Prog, cs.DropSite(i), c.CertifyOptions())
				if err != nil {
					t.Fatalf("DropSite(%d): oracle: %v", i, err)
				}
				if len(viols) == 0 {
					t.Errorf("DropSite(%d) of %s site went uncertified — missing edge masked", i, kind)
				}
			}
		})
	}
}
