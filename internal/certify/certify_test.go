package certify_test

import (
	"encoding/json"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/suite"
	"repro/internal/syncopt"
)

func compile(t *testing.T, src string) *core.Compiled {
	t.Helper()
	c, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// TestSuiteKernelsCertify: the certifier must accept the optimizer's
// schedule for every suite kernel, with no oracle disagreements, and every
// recomputed flow must carry at least one ordering record in the
// certificate.
func TestSuiteKernelsCertify(t *testing.T) {
	for _, k := range suite.Kernels() {
		t.Run(k.Name, func(t *testing.T) {
			c := compile(t, k.Source)
			cert, viols, err := c.Certify()
			if err != nil {
				t.Fatalf("oracle disagreement: %v", err)
			}
			if len(viols) != 0 {
				t.Fatalf("schedule rejected:\n%s", certify.RenderViolations(viols))
			}
			if cert == nil {
				t.Fatal("accepted schedule produced no certificate")
			}
			var m map[string]interface{}
			if err := json.Unmarshal(cert.JSON(), &m); err != nil {
				t.Fatalf("certificate JSON: %v", err)
			}
			for _, f := range cert.Flows {
				if len(f.OrderedBy) == 0 {
					t.Errorf("flow %s %d->%d has no ordering record", f.Region, f.From, f.To)
				}
			}
		})
	}
}

// TestSabotageRejectedByBoth: for every suite kernel, dropping any single
// non-none sync site must be rejected by the independent certifier AND by
// the optimizer's own Verify — two disjoint implementations agreeing the
// schedule is unsound. The certifier's flows are computed once per kernel
// and reused across all drops.
func TestSabotageRejectedByBoth(t *testing.T) {
	total, withWitness := 0, 0
	for _, k := range suite.Kernels() {
		c := compile(t, k.Source)
		cs := core.ToCertify(c.Schedule.Lower())
		an := certify.Analyze(c.Prog, cs, c.CertifyOptions())
		if len(an.OracleErrs) != 0 {
			t.Fatalf("%s: oracle disagreement: %v", k.Name, an.OracleErrs[0])
		}
		for id, kind := range cs.Kinds() {
			if kind == certify.KindNone {
				continue
			}
			total++
			_, viols := an.Check(cs.DropSite(id))
			switch {
			case len(viols) == 0:
				t.Errorf("%s: dropping site %d (%s) accepted by certifier", k.Name, id, kind)
			case !hasWitness(viols):
				t.Errorf("%s: dropping site %d (%s) rejected without a concrete witness:\n%s",
					k.Name, id, kind, certify.RenderViolations(viols))
			default:
				withWitness++
			}
			drop := c.Schedule.Clone()
			*drop.Boundaries()[id] = syncopt.Sync{}
			if errs := syncopt.Verify(c.Analyzer, drop); len(errs) == 0 {
				t.Errorf("%s: dropping site %d (%s) accepted by syncopt.Verify", k.Name, id, kind)
			}
		}
	}
	if total == 0 {
		t.Fatal("no sabotage variants exercised")
	}
	t.Logf("rejected %d/%d sabotaged schedules, %d with concrete witness", total, total, withWitness)
}
