package linear

import (
	"strings"
	"testing"
)

// The certifier's systems for three kernels of the compile_cold workload:
// the up/down/far variants certify.classify builds (flag v) and the subset
// its enumeration oracle re-checks (flag e).
func certifierSystems(tb testing.TB, flag string) []*System {
	var out []*System
	for _, cs := range loadCorpus(tb) {
		switch cs.kernel {
		case "jacobi2d", "meshsmooth", "adilike":
			if strings.Contains(cs.flags, flag) {
				out = append(out, cs.sys)
			}
		}
	}
	if len(out) == 0 {
		tb.Fatalf("no corpus systems with flag %q", flag)
	}
	return out
}

var benchSink int

func BenchmarkEnumerateOracle(b *testing.B) {
	systems := certifierSystems(b, "e")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range systems {
			_, res := s.Enumerate(oracleOpts)
			benchSink += int(res)
		}
	}
}

func BenchmarkSolve(b *testing.B) {
	systems := certifierSystems(b, "v")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range systems {
			benchSink += int(s.Solve())
		}
	}
}

// TestSearchNodeAllocatesNothing: an exhaustive search over ~1000 nodes
// costs exactly the allocations of a search cut off after one node, so what
// Enumerate allocates is set-up, not per node.
func TestSearchNodeAllocatesNothing(t *testing.T) {
	i, j, k := Loop("i"), Loop("j"), Loop("k")
	s := NewSystem().
		AddRange(i, NewAffine(1), NewAffine(10)).
		AddRange(j, VarExpr(i), NewAffine(10)).
		AddRange(k, NewAffine(1), NewAffine(10)).
		AddEQ(VarExpr(i).Add(VarExpr(j)).Add(VarExpr(k)), NewAffine(100))
	allocs := func(budget int, want EnumResult) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, res := s.Enumerate(EnumOptions{Budget: budget}); res != want {
				t.Fatalf("budget %d: got %v, want %v", budget, res, want)
			}
		})
	}
	if one, all := allocs(1, EnumBudget), allocs(0, EnumNoPoint); all != one {
		t.Fatalf("exhaustive search allocates %v times, a one-node search %v: nodes allocate", all, one)
	}
}
