package suite

import (
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/syncopt"
)

// TestGoldenStaticCounts pins the exact static synchronization profile of
// every kernel: base barrier sites vs optimized (barriers, counters,
// neighbor syncs), plus the number of cross-processor flows the
// independent certifier recomputes and orders. Any analysis change that
// shifts these numbers must be intentional — update the table and
// EXPERIMENTS.md together.
func TestGoldenStaticCounts(t *testing.T) {
	type counts struct{ baseBarr, barr, ctr, nbr, flows int }
	golden := map[string]counts{
		"jacobi1d":  {2, 0, 0, 2, 3},
		"jacobi2d":  {2, 0, 0, 2, 3},
		"stencil9":  {2, 0, 0, 2, 3},
		"redblack":  {2, 0, 0, 2, 5},
		"shallow":   {6, 0, 0, 2, 3},
		"tred2like": {1, 0, 1, 0, 1},
		"lulike":    {2, 0, 1, 0, 1},
		"pipeline":  {1, 0, 0, 1, 1},
		"matmul":    {1, 0, 0, 0, 0},
		"dotchain":  {5, 2, 0, 0, 2},
		// mg2level: the in-place smoothers execute as wavefront relays;
		// cross-grid transfers keep their barriers.
		"mg2level":    {2, 2, 0, 1, 11},
		"life":        {2, 0, 0, 2, 3},
		"tomcatvlike": {3, 2, 1, 0, 10},
		// guardedpivot: counter between the loops (guarded single
		// producer of D(k)) and a counter at the loop bottom (the
		// next pivot read A(1,k) has the owner of row 1 as its only
		// cross-iteration producer).
		"guardedpivot": {2, 0, 2, 0, 2},
		"adilike":      {2, 2, 0, 0, 3},
		// erlebacher: no parallel loops at all — the serial sweep runs
		// master-only in the baseline and as a fully pipelined
		// wavefront (no sync sites) when optimized.
		"erlebacher": {0, 0, 0, 0, 0},
	}
	for _, k := range Kernels() {
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
			got := counts{bst.Barriers, st.Barriers, st.Counters, st.Neighbors, len(cert.Flows)}
			if got != want {
				t.Errorf("static counts = %+v, want %+v\n%s", got, want, c.Schedule.Dump())
			}
			if errs := syncopt.Verify(c.Analyzer, c.Schedule); len(errs) != 0 {
				t.Errorf("verification: %v", errs[0])
			}
		})
	}
}
