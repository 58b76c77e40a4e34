package exec_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/suite"
)

// requireNarrowedEqualsTeam compiles src and, for the optimized and the
// fork-join schedule, requires every run of a runner that narrows to one
// worker — at P=1, and at P=2 when the width decision narrows it — to leave
// the state a one-worker team leaves (Config.FixedWidth), bit for bit on
// every array and every scalar, private ones and reductions included, under
// Run and under a context that can be cancelled. A width-1 runner with an
// inspector site keeps its team, and only it may. It returns how many P=2
// runners narrowed.
func requireNarrowedEqualsTeam(t *testing.T, what, src string, params map[string]int64) (narrowedAtP2 int) {
	t.Helper()
	c, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatalf("%s: compile: %v", what, err)
	}
	for _, l := range legs(c) {
		team, err := l.newRunner(exec.Config{Workers: 1, Params: params, FixedWidth: true})
		if err != nil {
			t.Fatalf("%s %s: %v", what, l.label, err)
		}
		if !exec.TakesTeam(team.Runner) {
			t.Fatalf("%s %s: a FixedWidth runner takes the width-1 path", what, l.label)
		}
		want, wantErr := team.Run()
		for _, workers := range []int{1, 2} {
			r, err := l.newRunner(exec.Config{Workers: workers, Params: params})
			if err != nil {
				t.Fatalf("%s %s P=%d: %v", what, l.label, workers, err)
			}
			if r.Width() != 1 {
				continue
			}
			if exec.TakesTeam(r.Runner) {
				if !exec.HasInspector(r.Runner) {
					t.Fatalf("%s %s P=%d: a narrowed runner leases a team", what, l.label, workers)
				}
				continue
			}
			if workers == 2 {
				narrowedAtP2++
			}
			// Run's context cannot be cancelled, a cancellable one makes
			// every sequential loop poll it: both hook sets, the same bits.
			ctx, cancel := context.WithCancel(context.Background())
			for _, run := range []struct {
				ctx string
				run func() (*core.Result, error)
			}{{"Run", r.Run}, {"cancellable context", func() (*core.Result, error) { return r.RunContext(ctx) }}} {
				got, err := run.run()
				label := fmt.Sprintf("%s %s P=%d %s", what, l.label, workers, run.ctx)
				if wantErr != nil || err != nil {
					if fmt.Sprint(wantErr) != fmt.Sprint(err) {
						t.Fatalf("%s: one-worker team fails with %v, width-1 run with %v", label, wantErr, err)
					}
					continue
				}
				requireSameBits(t, label, want.State, got.State)
			}
			cancel()
		}
	}
	return narrowedAtP2
}

// requireSameBits fails unless two states hold the same bits in every array
// element and every scalar.
func requireSameBits(t *testing.T, label string, team, narrowed *interp.State) {
	t.Helper()
	for _, d := range team.Prog.Arrays {
		a, b := team.Array(d.Name).Data, narrowed.Array(d.Name).Data
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: array %s element %d: one-worker team %v, width-1 run %v", label, d.Name, i, a[i], b[i])
			}
		}
	}
	for _, s := range team.Prog.Scalars {
		if a, b := team.Scalars[s], narrowed.Scalars[s]; math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: scalar %s: one-worker team %v, width-1 run %v", label, s, a, b)
		}
	}
}

// TestNarrowedRunEqualsOneWorkerTeam is the gate behind the width-1 path:
// every program a bench workload runs, at its nominal size, and every
// program the row-form fuzz differential generates, runs without a team to
// the state a one-worker team leaves. ComparableDiff would not do: it skips
// private scalars, and a sequential closure run that let a parallel loop's
// private temporaries write through to the shared copy would pass it.
func TestNarrowedRunEqualsOneWorkerTeam(t *testing.T) {
	narrowed := 0
	for _, in := range benchInputs() {
		narrowed += requireNarrowedEqualsTeam(t, in.Workload+" "+in.Kernel.Name, in.Kernel.Source, in.Params)
	}
	if narrowed == 0 {
		t.Error("no bench input narrows at P=2")
	}
	if testing.Short() {
		return
	}
	var g progGen
	var ig irregGen
	narrowed = 0
	for seed := int64(1); seed <= 40; seed++ {
		g.hasRed = false
		src, _ := g.generate(seed)
		params := map[string]int64{"N": int64(16 + g.rng.Intn(40)), "T": int64(1 + g.rng.Intn(3))}
		narrowed += requireNarrowedEqualsTeam(t, fmt.Sprintf("fuzz seed %d", seed), src, params)
		isrc, _, iparams := ig.generate(seed)
		narrowed += requireNarrowedEqualsTeam(t, fmt.Sprintf("irregular fuzz seed %d", seed), isrc, iparams)
	}
	if narrowed == 0 {
		t.Error("no fuzzed program narrows at P=2")
	}
}

// TestSeededImage pins what a Runner's runs start from: a Runner that has
// run once holds no image (its one run was seeded as a one-shot request's
// is); from the second run on, every run starts from the state NewState and
// SeedDeterministic make, whatever the caller did to the states earlier
// runs returned, and runs that copy the image concurrently do too.
func TestSeededImage(t *testing.T) {
	var in benchInput
	for _, in = range benchInputs() {
		if in.Kernel.Name == "mg2level" { // it narrows, and a one-worker team of it meets barriers
			break
		}
	}
	if in.Kernel.Name != "mg2level" {
		t.Fatal("no bench input runs mg2level")
	}
	c, err := core.Compile(in.Kernel.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Compile(in.Kernel.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fixed := range []bool{false, true} {
		cfg := exec.Config{Workers: 2, Params: in.Params, FixedWidth: fixed}
		want, err := ref.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		first, err := want.Run() // a first run: seeded as today
		if err != nil {
			t.Fatal(err)
		}
		if exec.HasImage(want.Runner) {
			t.Fatal("a Runner that has run once holds an image")
		}
		r, err := c.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			res, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, fmt.Sprintf("fixed=%v run %d", fixed, i+1), first.State, res.State)
			for _, d := range res.State.Prog.Arrays {
				data := res.State.Array(d.Name).Data
				for j := range data {
					data[j] = -1
				}
			}
			for s := range res.State.Scalars {
				res.State.Scalars[s] = 7
			}
		}
		if !exec.HasImage(r.Runner) {
			t.Fatal("a Runner that has run four times holds no image")
		}
		var wg sync.WaitGroup
		states := make([]*interp.State, 4)
		errs := make([]error, len(states))
		for i := range states {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := r.Run()
				if errs[i] = err; err == nil {
					states[i] = res.State
				}
			}()
		}
		wg.Wait()
		for i, st := range states {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			requireSameBits(t, fmt.Sprintf("fixed=%v concurrent run %d", fixed, i), first.State, st)
		}
	}
}

// TestWidthOneKeepsTeamWhenObserved: a one-worker runner whose run is
// observed through the team's runtime — an inspector site scans with it, a
// trace records its synchronization — leases a team, so a P=1 run reports
// its inspector statistics and its trace events, and leaves the bits the
// untraced width-1 run leaves.
func TestWidthOneKeepsTeamWhenObserved(t *testing.T) {
	inspected := 0
	for _, k := range suite.IrregularKernels() {
		c, err := core.Compile(k.Source, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.NewRunner(exec.Config{Workers: 1, Params: k.Params})
		if err != nil {
			t.Fatal(err)
		}
		if exec.TakesTeam(r.Runner) != exec.HasInspector(r.Runner) {
			t.Fatalf("%s P=1: inspector sites %v, team %v; want a team exactly for inspector sites", k.Name,
				exec.HasInspector(r.Runner), exec.TakesTeam(r.Runner))
		}
		if !exec.HasInspector(r.Runner) {
			continue
		}
		inspected++
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Inspector) == 0 {
			t.Errorf("%s P=1: no inspector statistics reported", k.Name)
		}
	}
	if inspected == 0 {
		t.Fatal("no irregular kernel has an inspector site")
	}

	var in benchInput
	for _, in = range benchInputs() {
		if in.Kernel.Name == "mg2level" { // it narrows, and a one-worker team of it meets barriers
			break
		}
	}
	if in.Kernel.Name != "mg2level" {
		t.Fatal("no bench input runs mg2level")
	}
	c, err := core.Compile(in.Kernel.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.NewRunner(exec.Config{Workers: 1, Params: in.Params})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := c.NewRunner(exec.Config{Workers: 1, Params: in.Params, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if exec.TakesTeam(plain.Runner) || !exec.TakesTeam(traced.Runner) {
		t.Fatalf("%s P=1: untraced team %v, traced team %v; want only the traced one", in.Kernel.Name,
			exec.TakesTeam(plain.Runner), exec.TakesTeam(traced.Runner))
	}
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := traced.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil || got.Trace.Recorded() == 0 {
		t.Errorf("%s P=1 traced: no trace events recorded", in.Kernel.Name)
	}
	requireSameBits(t, in.Kernel.Name+" P=1 traced", want.State, got.State)
}
