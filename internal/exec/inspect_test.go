package exec_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/exec"
	"repro/internal/suite"
)

// irregProgram is one input of the row differential.
type irregProgram struct {
	name, src string
	params    map[string]int64
}

// irregPrograms returns the five irregular kernels at their table sizes,
// every program TestFuzzIrregularDifferential generates and rotGather, the
// one whose sites are scanned at every crossing.
func irregPrograms() []irregProgram {
	out := []irregProgram{{"rotgather", rotGather, map[string]int64{"N": 64, "T": 24}}}
	for _, k := range suite.IrregularKernels() {
		out = append(out, irregProgram{k.Name, k.Source, k.Params})
	}
	var g irregGen
	for seed := int64(1); seed <= 60; seed++ {
		src, shape, params := g.generate(seed)
		out = append(out, irregProgram{fmt.Sprintf("fuzz%d(%s)", seed, shape), src, params})
	}
	return out
}

// TestInspectorRowsMatchReference is the differential between the compiled
// per-worker scan and the reference scan kept in refscan_test.go (the
// inspector as it was before rows were compiled): on every team size each
// worker's row is the reference's partner set for it, at every scan of a
// real run, and the folded site statistics are the counts the reference
// inspector reported. A block plan is what schedules inspector sites; the
// cyclic leg drives both scans over the same lowered sites with the
// placement kind flipped, off the team, so the strided slices are compared
// too.
func TestInspectorRowsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("row differential skipped in -short mode")
	}
	sites, rows := 0, 0
	for _, p := range irregPrograms() {
		c, err := core.Compile(p.src, core.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", p.name, err)
		}
		seq, err := c.RunSequential(p.params)
		if err != nil {
			t.Fatalf("%s: sequential: %v", p.name, err)
		}
		for _, workers := range []int{1, 2, 3, 4, 7} {
			r, err := c.NewRunner(exec.Config{Workers: workers, Params: p.params})
			if err != nil {
				t.Fatalf("%s: runner: %v", p.name, err)
			}
			if exec.HasInspector(r.Runner) && !exec.TakesTeam(r.Runner) {
				t.Fatalf("%s P=%d: a runner with inspector sites runs without a team", p.name, workers)
			}
			check := exec.CheckRows(r.Runner)
			res, err := r.Run()
			if err != nil {
				t.Fatalf("%s P=%d: run: %v", p.name, workers, err)
			}
			if d := exec.ComparableDiff(seq, res.State, c.Prog); d > 0 {
				t.Fatalf("%s P=%d diverges by %g", p.name, workers, d)
			}
			if len(check.Diff) > 0 {
				t.Fatalf("%s P=%d: %d rows differ, first: %s\n%s", p.name, workers, len(check.Diff), check.Diff[0], p.src)
			}
			want := check.Want(&res.Result)
			if len(want) != len(res.Inspector) {
				t.Fatalf("%s P=%d: %d sites scanned, %d reported", p.name, workers, len(want), len(res.Inspector))
			}
			for id, w := range want {
				got := res.Inspector[id]
				if got.Conservative != 0 {
					t.Fatalf("%s P=%d site %d: %d conservative scans", p.name, workers, id, got.Conservative)
				}
				got.ScanNS, got.ScanVisits = 0, 0
				if got != w {
					t.Fatalf("%s P=%d site %d: stats %+v, reference %+v", p.name, workers, id, got, w)
				}
			}
			sites += len(want)
			for _, kind := range []decomp.Kind{decomp.Block, decomp.Cyclic} {
				n, err := exec.RowsDetached(r.Runner, seq, kind)
				if err != nil {
					t.Fatalf("%s: %v\n%s", p.name, err, p.src)
				}
				rows += n
			}
		}
	}
	if sites == 0 || rows == 0 {
		t.Fatalf("vacuous differential: %d sites scanned on a team, %d rows compared off it", sites, rows)
	}
	t.Logf("%d inspector sites scanned on a team, %d rows compared off it", sites, rows)
}

// rotGather reads B through a map at a position that moves with the time
// step, so no scan outcome of its two inspector sites can be cached.
const rotGather = `
program rotgather
param N, T
real A(N), B(N), g(max(N, 1))
g(1) = 1.0
do kk = 2, N
  g(kk) = min(g(kk - 1) + 1.0, N)
end do
parallel do i = 1, N
  A(i) = 0.5 + 0.001 * i
end do
parallel do i = 1, N
  B(i) = 1.0
end do
do t = 1, T
  parallel do i = 1, N
    B(i) = A(i) + 0.5
  end do
  parallel do i = 1, N
    A(i) = B(g(mod(i + t, N) + 1)) * 0.9 + 0.1
  end do
end do
end
`

// TestInspectorNonCacheableSite enters the path no suite kernel takes: a
// site whose pairs read the carrier is scanned at every crossing, by every
// worker, and its rows follow the rotation. The run must match the
// sequential state under chaos timing with the sanitizer watching the
// synthesized waits.
func TestInspectorNonCacheableSite(t *testing.T) {
	params := map[string]int64{"N": 64, "T": 24}
	c, err := core.Compile(rotGather, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.RunSequential(params)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewRunner(exec.Config{Workers: 4, Params: params, ChaosSeed: 11, Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[int][][]int{} // site -> worker 0's successive rows
	exec.SetRowHook(r.Runner, func(site, w int, row []int) []int {
		if w == 0 {
			mu.Lock()
			seen[site] = append(seen[site], append([]int(nil), row...))
			mu.Unlock()
		}
		return row
	})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := exec.ComparableDiff(seq, res.State, c.Prog); d > 0 {
		t.Fatalf("diverges from the sequential run by %g", d)
	}
	if !res.Sanitizer.Clean() {
		t.Fatalf("sanitizer flagged the synthesized waits:\n%s", res.Sanitizer)
	}
	if len(res.Inspector) == 0 {
		t.Fatalf("no inspector site scheduled:\n%s", c.Schedule.Dump())
	}
	for id, is := range res.Inspector {
		if crossings := is.EmptyCrossings + is.WaitCrossings; is.Scans != crossings || crossings < params["T"]-1 {
			t.Errorf("site %d: %d scans over %d crossings; a non-cacheable site scans at each", id, is.Scans, crossings)
		}
		if is.Conservative != 0 {
			t.Errorf("site %d: %d conservative scans", id, is.Conservative)
		}
		rows := seen[id-1]
		changed := false
		for _, row := range rows {
			changed = changed || !reflect.DeepEqual(row, rows[0])
		}
		if !changed {
			t.Errorf("site %d: worker 0 waited on %v at all %d crossings; the rotation must move its row", id, rows[0], len(rows))
		}
	}
}

// TestInspectorConservativeFallback enters the other untested path twice: a
// scan that faults (an index element out of range on an iteration a guard
// never executes) and one that exhausts scanBudget. The worker whose scan
// failed must wait on every peer, the failure must stay out of the run's
// error, and the state must match the sequential run.
func TestInspectorConservativeFallback(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		workers   int
		params    map[string]int64
	}{
		{"fault-behind-a-guard", `
program guardedidx
param N, T
real A(N), B(N), g(max(N, 1))
g(1) = 2.0
do kk = 2, N
  g(kk) = mod(g(kk - 1) + 2.0, N) + 1.0
end do
g(N) = N + 5.0
parallel do i = 1, N
  A(i) = 0.5 + 0.001 * i
end do
parallel do i = 1, N
  B(i) = 1.0
end do
do t = 1, T
  parallel do i = 1, N
    B(i) = A(i) + 0.5
  end do
  parallel do i = 1, N
    if (i < N) then
      A(i) = B(g(i)) * 0.9 + 0.1
    end if
  end do
end do
end
`, 4, map[string]int64{"N": 64, "T": 5}},
		// Each worker's destination block is N/2 * M = 2^21 visits.
		{"over-budget", `
program bigchain
param N, M, T
real x(N), y(N), cl(max(M, 1))
cl(1) = 1.0
do kk = 2, M
  cl(kk) = mod(cl(kk - 1) + 3.0, N) + 1.0
end do
parallel do i = 1, N
  x(i) = 1.0
end do
do t = 1, T
  parallel do i = 1, N
    y(i) = 0.0
    do k = 1, M
      y(i) = y(i) + 0.001 * x(cl(k))
    end do
  end do
  parallel do i = 1, N
    x(i) = 0.5 * x(i) + 0.25 * y(i)
  end do
end do
end
`, 2, map[string]int64{"N": 4096, "M": 1024, "T": 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "over-budget" {
				t.Skip("two million scan visits skipped in -short mode")
			}
			c, err := core.Compile(tc.src, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := c.RunSequential(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.NewRunner(exec.Config{Workers: tc.workers, Params: tc.params})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			full := 0 // rows that list every peer
			exec.SetRowHook(r.Runner, func(site, w int, row []int) []int {
				if len(row) == tc.workers-1 {
					mu.Lock()
					full++
					mu.Unlock()
				}
				return row
			})
			res, err := r.Run()
			if err != nil {
				t.Fatalf("the scan's failure became the run's: %v", err)
			}
			if d := exec.ComparableDiff(seq, res.State, c.Prog); d > 0 {
				t.Fatalf("diverges from the sequential run by %g", d)
			}
			var conservative int64
			for _, is := range res.Inspector {
				conservative += is.Conservative
				if is.Conservative > 0 && is.WaitCrossings == 0 {
					t.Errorf("a conservative scan left %+v without a waiting crossing", is)
				}
			}
			if conservative == 0 || full == 0 {
				t.Fatalf("conservative scans: %d, rows waiting on every peer: %d; want both positive\n%+v",
					conservative, full, res.Inspector)
			}
		})
	}
}

// TestInspectorSabotagedRowIsCaught shows the sanitizer audits the rows
// themselves: with one partner dropped from every row of edgerelax (whose
// rotation map makes neighbouring blocks conflict), the unordered flow must
// be flagged.
func TestInspectorSabotagedRowIsCaught(t *testing.T) {
	if raceEnabled {
		t.Skip("a dropped partner plants a real data race; see race_on_test.go")
	}
	k, err := suite.GetIrregular("edgerelax")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(sabotage bool) *core.Result {
		r, err := c.NewRunner(exec.Config{Workers: 4, Sanitize: true,
			Params: map[string]int64{"N": 64, "T": 4}})
		if err != nil {
			t.Fatal(err)
		}
		dropped := false
		var mu sync.Mutex
		exec.SetRowHook(r.Runner, func(site, w int, row []int) []int {
			mu.Lock()
			defer mu.Unlock()
			if sabotage && len(row) > 0 {
				dropped = true
				return row[1:]
			}
			return row
		})
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if sabotage && !dropped {
			t.Fatal("no row had a partner to drop")
		}
		return res
	}
	if res := run(false); !res.Sanitizer.Clean() {
		t.Fatalf("untouched rows flagged:\n%s", res.Sanitizer)
	}
	if res := run(true); res.Sanitizer.Clean() {
		t.Fatal("a partner was dropped from every row and the sanitizer saw nothing")
	}
}
