package certify_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/suite"
)

func kernelSource(t *testing.T, name string) string {
	t.Helper()
	for _, k := range suite.Kernels() {
		if k.Name == name {
			return k.Source
		}
	}
	t.Fatalf("kernel %s not in suite", name)
	return ""
}

// TestDropSiteIsolation: DropSite must demote exactly one boundary and
// leave the original schedule untouched.
func TestDropSiteIsolation(t *testing.T) {
	c := compile(t, kernelSource(t, "jacobi1d"))
	cs := core.ToCertify(c.Schedule.Lower())
	kinds := cs.Kinds()
	if len(kinds) == 0 {
		t.Fatal("schedule has no sites")
	}
	for id := range kinds {
		dropped := cs.DropSite(id).Kinds()
		if len(dropped) != len(kinds) {
			t.Fatalf("site %d: DropSite changed site count %d -> %d", id, len(kinds), len(dropped))
		}
		for i, k := range dropped {
			switch {
			case i == id && k != certify.KindNone:
				t.Errorf("site %d not demoted: %s", id, k)
			case i != id && k != kinds[i]:
				t.Errorf("dropping site %d changed site %d: %s -> %s", id, i, kinds[i], k)
			}
		}
	}
	for i, k := range cs.Kinds() {
		if k != kinds[i] {
			t.Errorf("DropSite mutated the original schedule at site %d", i)
		}
	}
}

// TestViolationRendering: a violation prints its flow, access pairs, and
// witness on separate indented lines.
func TestViolationRendering(t *testing.T) {
	v := certify.Violation{
		Region: "<top>", From: 0, To: 1, Class: certify.FlowNeighbor,
		Variant: "wait-lower",
		Pairs:   []string{"A: write A(i) [parallel] -> read A(i - 1) [parallel]"},
		Witness: &certify.Witness{
			Params: map[string]int64{"N": 4}, BlockSize: 1,
			Producer: 1, Consumer: 0, ProducerRank: 1, ConsumerRank: 0,
			Array: "A", Element: []int64{2},
			ProducerIter: map[string]int64{"i": 2},
			ConsumerIter: map[string]int64{"i": 1},
		},
	}
	s := v.String()
	for _, want := range []string{
		"flow group 0 -> group 1 (neighbor, wait-lower) unordered",
		"A: write A(i)",
		"witness: N=4, B=1: processor 1 (origin 1) -> processor 0 (origin 0), element A(2)",
		"producer at i=2", "consumer at i=1",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("violation rendering missing %q:\n%s", want, s)
		}
	}
}

// accumSrc accumulates s in a time loop around a two-loop stencil, and no
// statement in the loop reads s.
const accumSrc = `
program accum
param N, T
real A(N), B(N), X(N), s
do t = 1, T
  do i = 2, N - 1
    B(i) = 0.5 * (A(i - 1) + A(i + 1))
  end do
  do i = 2, N - 1
    A(i) = B(i)
    s = s + X(i)
  end do
end do
end
`

// TestDropReductionLoopBottomRejected pins the ordering the executor's
// reduction fold relies on: the last worker to arrive folds every rank's
// partial without waiting, so the next instance's update must be ordered
// after this one's. In accumSrc only the output dependence on s keeps the
// loop-bottom site a barrier; demoting it must be rejected, with s among the
// unordered flows.
func TestDropReductionLoopBottomRejected(t *testing.T) {
	c := compile(t, accumSrc)
	cs := core.ToCertify(c.Schedule.Lower())
	an := certify.Analyze(c.Prog, cs, c.CertifyOptions())
	if len(an.OracleErrs) != 0 {
		t.Fatalf("oracle disagreement: %v", an.OracleErrs[0])
	}
	if _, viols := an.Check(cs); len(viols) != 0 {
		t.Fatalf("schedule rejected:\n%s", certify.RenderViolations(viols))
	}
	tloop := c.Prog.Body[0]
	bottom := -1
	for id, s := range cs.Sites {
		if s.Loop == tloop && s.Index == 1 {
			bottom = id
		}
	}
	if bottom < 0 || cs.Sites[bottom].Kind != certify.KindBarrier {
		t.Fatalf("loop-bottom site %d is not a barrier: %+v", bottom, cs.Sites)
	}
	// Dropped, the site leaves the A stencil and s unordered; weakened to
	// the neighbor sync the stencil alone needs, it leaves s alone.
	unordered := func(q *certify.Program) (onS int, viols []certify.Violation) {
		_, viols = an.Check(q)
		for _, v := range viols {
			if slices.ContainsFunc(v.Pairs, func(p string) bool { return strings.HasPrefix(p, "s: write s") }) {
				onS++
			}
		}
		return onS, viols
	}
	if onS, viols := unordered(cs.DropSite(bottom)); onS == 0 {
		t.Errorf("loop-bottom site dropped: s not among the unordered flows:\n%s", certify.RenderViolations(viols))
	}
	weak := cs.DropSite(bottom)
	weak.Sites[bottom].Kind = certify.KindNeighbor
	weak.Sites[bottom].WaitLower, weak.Sites[bottom].WaitUpper = true, true
	if onS, viols := unordered(weak); onS == 0 || onS != len(viols) {
		t.Errorf("loop-bottom site weakened to neighbor: want only s unordered, got:\n%s", certify.RenderViolations(viols))
	}
}
