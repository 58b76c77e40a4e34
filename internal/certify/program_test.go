package certify_test

import (
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
	cs := core.ToCertify(c.Schedule.Lower(false))
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
