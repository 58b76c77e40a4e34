// Package repro_test holds the testing.B benchmarks that are the
// ten-second local readings of one layer each (docs/INTERNALS.md §11 and
// EXPERIMENTS.md cite them):
//
//	go test -bench=BenchmarkFM -benchmem .             # Ablation A1
//	go test -bench=InnerLoop -benchtime=20x .          # closure hot loop, assigns/s
//	go test -bench=SeedState -benchtime=200x .         # a run's state allocation and seeding
//	go test -bench=FineGrain -benchtime=20x .          # one thread vs two workers at sync_p2p's grain
//	go test -bench=InspectorScan -benchtime=2000x .    # inspector scan, ns per visited element
//
// Barrier and counter latency, kernel run time and compile time are
// per-layer metrics of `go run ./bench` (spmdrt.barrier_ns.*,
// spmdrt.counter_ns, exec.run_ms / exec.base_run_ms, core.compile_ms);
// Figure 1 is `go run ./cmd/benchtab -fig 1`; what choosing a runner's team
// width costs is `go test -run '^$' -bench=WidthDecision ./internal/exec`.
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/linear"
	"repro/internal/parser"
	"repro/internal/suite"
)

// BenchmarkInnerLoop is the local reading of the lowered inner loop: the four
// compute_dense programs of the committed benchmark at its sizes, six
// fine-grain ones at the grain of sync_p2p (14- to 62-element rows, thousands
// of loop entries; redblack and guardedpivot behind index guards),
// sync_barrier's two 2-D nests at its sizes (14- and 16-element rows) and the
// five irregular programs at the sizes of irregular (gathers and scatters;
// spmvcsr's two-nonzero CSR rows), run sequentially on one frame (no team,
// no sync),
// reported as assignments per second. The state is allocated and seeded once,
// outside the loop: every iteration runs the program again over what the last
// one left, which costs the same and keeps allocation and the timer's
// stop/start out of a measurement that is 0.1 ms long at the small sizes.
func BenchmarkInnerLoop(b *testing.B) {
	for _, tc := range []struct {
		name   string
		params map[string]int64
	}{
		{"matmul", map[string]int64{"N": 96}},
		{"jacobi2d", map[string]int64{"N": 192, "T": 4}},
		{"stencil9", map[string]int64{"N": 160, "T": 4}},
		{"dotchain", map[string]int64{"N": 262144}},
		{"jacobi1d", map[string]int64{"N": 64, "T": 3000}},
		{"jacobi2d", map[string]int64{"N": 16, "T": 600}},
		{"shallow", map[string]int64{"N": 16, "T": 300}},
		{"pipeline", map[string]int64{"N": 64, "M": 3000}},
		{"redblack", map[string]int64{"N": 64, "T": 2000}},
		{"guardedpivot", map[string]int64{"N": 256}},
		{"adilike", map[string]int64{"N": 16, "T": 600}},
		{"tomcatvlike", map[string]int64{"N": 16, "T": 500}},
		{"permcopy", map[string]int64{"N": 2048, "T": 200}},
		{"gatherscatter", map[string]int64{"N": 2048, "T": 200}},
		{"meshsmooth", map[string]int64{"N": 2048, "T": 200}},
		{"edgerelax", map[string]int64{"N": 2048, "T": 200}},
		{"spmvcsr", map[string]int64{"N": 1024, "T": 200}},
	} {
		k, err := suite.Get(tc.name)
		if err != nil {
			k, err = suite.GetIrregular(tc.name)
		}
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/N%d", tc.name, tc.params["N"]), func(b *testing.B) {
			prog, err := parser.Parse(k.Source)
			if err != nil {
				b.Fatal(err)
			}
			_, assigns, err := interp.RunCount(prog, tc.params)
			if err != nil {
				b.Fatal(err)
			}
			benchRunSeq(b, prog, tc.params)
			b.ReportMetric(float64(assigns)*float64(b.N)/b.Elapsed().Seconds(), "assigns/s")
		})
	}
}

// benchRunSeq times b.N sequential closure runs of prog on one frame, over
// one state allocated and seeded before the timer starts.
func benchRunSeq(b *testing.B, prog *ir.Program, params map[string]int64) {
	exe, err := compile.Compile(prog, nil, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st, err := interp.NewState(prog, params)
	if err != nil {
		b.Fatal(err)
	}
	st.SeedDeterministic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exe.RunSeq(st, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeedState times what a bench run does before its team starts:
// interp.NewState and SeedDeterministic for one program, at the nominal sizes
// of the four workloads that time runs. bench's op_ms includes it, while
// exec.run_ms and suite.Paired time the run alone.
func BenchmarkSeedState(b *testing.B) {
	for _, tc := range []struct {
		workload, name string
		params         map[string]int64
	}{
		{"sync_p2p", "jacobi1d", map[string]int64{"N": 64, "T": 3000}},
		{"sync_p2p", "redblack", map[string]int64{"N": 64, "T": 2000}},
		{"sync_p2p", "jacobi2d", map[string]int64{"N": 16, "T": 600}},
		{"sync_p2p", "shallow", map[string]int64{"N": 16, "T": 300}},
		{"sync_p2p", "tred2like", map[string]int64{"N": 256}},
		{"sync_p2p", "guardedpivot", map[string]int64{"N": 256}},
		{"sync_p2p", "pipeline", map[string]int64{"N": 64, "M": 3000}},
		{"sync_p2p", "erlebacher", map[string]int64{"N": 64, "M": 2000}},
		{"sync_barrier", "mg2level", map[string]int64{"N": 256, "M": 128, "T": 500}},
		{"sync_barrier", "adilike", map[string]int64{"N": 16, "T": 600}},
		{"sync_barrier", "tomcatvlike", map[string]int64{"N": 16, "T": 500}},
		{"sync_barrier", "dotchain", map[string]int64{"N": 4096}},
		{"compute_dense", "matmul", map[string]int64{"N": 96}},
		{"compute_dense", "jacobi2d", map[string]int64{"N": 192, "T": 4}},
		{"compute_dense", "stencil9", map[string]int64{"N": 160, "T": 4}},
		{"compute_dense", "dotchain", map[string]int64{"N": 262144}},
		{"irregular", "permcopy", map[string]int64{"N": 2048, "T": 200}},
		{"irregular", "gatherscatter", map[string]int64{"N": 2048, "T": 200}},
		{"irregular", "meshsmooth", map[string]int64{"N": 2048, "T": 200}},
		{"irregular", "edgerelax", map[string]int64{"N": 2048, "T": 200}},
		{"irregular", "spmvcsr", map[string]int64{"N": 1024, "T": 200}},
	} {
		k, err := suite.Get(tc.name)
		if err != nil {
			k, err = suite.GetIrregular(tc.name)
		}
		if err != nil {
			b.Fatal(err)
		}
		prog, err := parser.Parse(k.Source)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/%s/N%d", tc.workload, tc.name, tc.params["N"]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := interp.NewState(prog, tc.params)
				if err != nil {
					b.Fatal(err)
				}
				st.SeedDeterministic()
			}
		})
	}
}

// BenchmarkFineGrain puts, at the grain of sync_p2p, the one-thread closure
// run (seq) and a one-worker team (team1: FixedWidth, so it still leases a
// team and steps every sync site) beside the two-worker runs of the same
// program: optimized at the width NewRunner chooses (opt) and at both
// workers (fixed, the paper's fixed-P measure), and fork-join (base) — the
// comparison exec.par_over_seq does not make, because it divides by the
// tree-walking interpreter. At this grain two workers lose to one: what they
// save in compute they spend in sync, so opt narrows to one worker, which
// runs no team, and should read like seq plus BenchmarkSeedState's copy of
// the state (a Runner's runs after its first copy a seeded image, within
// the same order as seeding one). optctx is opt under a context that can be
// cancelled, as spmdrun runs it: the same drivers, polling a stop flag the
// context sets, so it should read like opt. matmul at compute_dense's size
// is the other way round: there opt is fixed.
func BenchmarkFineGrain(b *testing.B) {
	for _, tc := range []struct {
		name   string
		params map[string]int64
	}{
		{"jacobi1d", map[string]int64{"N": 64, "T": 3000}},
		{"redblack", map[string]int64{"N": 64, "T": 2000}},
		{"pipeline", map[string]int64{"N": 64, "M": 3000}},
		{"matmul", map[string]int64{"N": 96}},
	} {
		k, err := suite.Get(tc.name)
		if err != nil {
			b.Fatal(err)
		}
		c, err := core.Compile(k.Source, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/seq", func(b *testing.B) { benchRunSeq(b, c.Prog, tc.params) })
		for _, leg := range []struct {
			name string
			cfg  exec.Config
		}{
			{"team1", exec.Config{Workers: 1, FixedWidth: true}},
			{"opt", exec.Config{Workers: 2}},
			{"optctx", exec.Config{Workers: 2}},
			{"fixed", exec.Config{Workers: 2, FixedWidth: true}},
			{"base", exec.Config{Workers: 2}},
		} {
			b.Run(tc.name+"/"+leg.name, func(b *testing.B) {
				cfg := leg.cfg
				cfg.Params = tc.params
				newRunner := c.NewRunner
				if leg.name == "base" {
					newRunner = c.NewBaselineRunner
				}
				runner, err := newRunner(cfg)
				if err != nil {
					b.Fatal(err)
				}
				run := runner.Run
				if leg.name == "optctx" {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					run = func() (*core.Result, error) { return runner.RunContext(ctx) }
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := run(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(runner.Width()), "width")
			})
		}
	}
}

// BenchmarkInspectorScan reads the cost of the runtime inspector off the
// run statistics: one run per iteration at T=1, so the scans (one per site,
// the sites being cacheable) are a visible share of it, and the metric is
// worker 0's scan time over the elements it visited — what a dynamic test
// costs next to the loop it guards.
func BenchmarkInspectorScan(b *testing.B) {
	for _, name := range []string{"gatherscatter", "edgerelax", "spmvcsr"} {
		k, err := suite.GetIrregular(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			runner, err := c.NewRunner(exec.Config{Workers: 2,
				Params: map[string]int64{"N": 2048, "T": 1}})
			if err != nil {
				b.Fatal(err)
			}
			var ns, visits, scans int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runner.Run()
				if err != nil {
					b.Fatal(err)
				}
				for _, is := range res.Inspector {
					ns, visits, scans = ns+is.ScanNS, visits+is.ScanVisits, scans+is.Scans
				}
			}
			if visits == 0 {
				b.Fatal("no inspector scan ran")
			}
			b.ReportMetric(float64(ns)/float64(visits), "ns/visit")
			b.ReportMetric(float64(ns)/float64(scans)/1e3, "us/scan")
			b.ReportMetric(float64(visits)/float64(scans), "visits/scan")
		})
	}
}

// fmSystem builds a communication-analysis-shaped system: two block-
// partitioned loop copies, ownership constraints and subscript equality.
func fmSystem() *linear.System {
	N, B := linear.Sym("N"), linear.Sym("B")
	u1, u2 := linear.Proc("u1"), linear.Proc("u2")
	i1, i2 := linear.Loop("i1"), linear.Loop("i2")
	s := linear.NewSystem().
		AddGE(linear.VarExpr(N), linear.NewAffine(1)).
		AddGE(linear.VarExpr(B), linear.NewAffine(1)).
		AddRange(i1, linear.NewAffine(2), linear.VarExpr(N).AddConst(-1)).
		AddRange(i2, linear.NewAffine(2), linear.VarExpr(N).AddConst(-1)).
		AddRange(i1, linear.VarExpr(u1).AddConst(1), linear.VarExpr(u1).Add(linear.VarExpr(B))).
		AddRange(i2, linear.VarExpr(u2).AddConst(1), linear.VarExpr(u2).Add(linear.VarExpr(B))).
		AddGE(linear.VarExpr(u1), linear.NewAffine(0)).
		AddGE(linear.VarExpr(u2), linear.NewAffine(0)).
		AddEQ(linear.VarExpr(i1), linear.VarExpr(i2).AddConst(-1)).
		AddGE(linear.VarExpr(u2).Sub(linear.VarExpr(u1)), linear.VarExpr(B))
	return s
}

// BenchmarkFM is ablation A1: Fourier-Motzkin with and without Gaussian
// equality pre-substitution.
func BenchmarkFM(b *testing.B) {
	sys := fmSystem()
	b.Run("withSubst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if sys.Solve() == linear.Unknown {
				b.Fatal("unexpected bailout")
			}
		}
	})
	b.Run("noSubst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if sys.SolveNoSubst() == linear.Unknown {
				b.Fatal("unexpected bailout")
			}
		}
	})
}
