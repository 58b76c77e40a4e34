package exec_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/costsim"
	"repro/internal/decomp"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/suite"
)

// TestWidthDecisionsGolden pins the team width NewRunner chooses for every
// suite program of the bench's workloads at its nominal size, and for the
// kernels no workload runs at their table sizes (suite.BenchInputs), at P ∈
// {2, 4} under the optimized schedule: per line W, the one-worker compute per
// sync episode C/E and the mean episode s(P) in ns, and the predicted run
// time at P over that at one worker; or why the width is fixed at P. Beside
// the golden it holds what the decision promises:
//   - W is 1 or P, and two decisions on the same inputs agree;
//   - the compute_dense programs keep W = P, at a predicted P=2/1 ratio in
//     0.50–0.80, and so do the compile_cold kernels; guardedpivot at N=96,
//     whose 190 counter broadcasts cost more than the compute a second
//     worker takes, is left to the golden;
//   - jacobi1d, redblack and pipeline at sync_p2p's sizes run on one worker
//     at P=2;
//   - a narrowed run leaves the state the fixed-width run leaves.
func TestWidthDecisionsGolden(t *testing.T) {
	var out bytes.Buffer
	narrowAtP2 := map[string]bool{"jacobi1d": true, "redblack": true, "pipeline": true}
	for _, in := range suite.BenchInputs() {
		c, err := core.Compile(in.Kernel.Source, core.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", in.Kernel.Name, err)
		}
		for _, P := range []int{2, 4} {
			label := fmt.Sprintf("%s %s %s P=%d", in.Workload, in.Kernel.Name, paramString(in.Params), P)
			cfg := exec.Config{Workers: P, Params: in.Params}
			r, err := c.NewRunner(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			d := r.WidthDecision()
			again, err := c.NewRunner(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if again.WidthDecision() != d {
				t.Errorf("%s: two decisions on the same inputs: %v and %v", label, d, again.WidthDecision())
			}
			if d.W != r.Width() || d.W != 1 && d.W != P || d.P != P {
				t.Errorf("%s: width %d (decision %v), want 1 or %d", label, r.Width(), d, P)
			}
			tab, e := costsim.HostTable, d.Est.Episodes()
			ratio := tab.MakespanNS(d.Est, P) / tab.MakespanNS(d.Est, 1)
			switch {
			case d.Fixed != "":
				fmt.Fprintf(&out, "%s W=%d fixed: %s\n", label, d.W, d.Fixed)
			case e == 0:
				fmt.Fprintf(&out, "%s W=%d no sync episodes P/1=%.2f\n", label, d.W, ratio)
			default:
				fmt.Fprintf(&out, "%s W=%d C/E=%.0fns s(P)=%.0fns P/1=%.2f\n", label, d.W,
					tab.NodeNS*(d.Est.Par+d.Est.Serial)/e, tab.SyncNS(d.Est, P)/e, ratio)
			}
			switch {
			case in.Workload == "compute_dense":
				if d.W != P || P == 2 && (ratio < 0.5 || ratio > 0.8) {
					t.Errorf("%s: %v, predicted P/1 ratio %.2f: want W = P at 0.50–0.80", label, d, ratio)
				}
			case in.Workload == "compile_cold" && in.Kernel.Name != "guardedpivot":
				if d.W != P {
					t.Errorf("%s: %v, want W = P", label, d)
				}
			case in.Workload == "sync_p2p" && P == 2 && narrowAtP2[in.Kernel.Name]:
				if d.W != 1 {
					t.Errorf("%s: width %d (%v), want 1", label, d.W, d)
				}
			}
			if d.W < P {
				fixed := cfg
				fixed.FixedWidth = true
				requireSameFinalState(t, label, c.NewRunner, in.Kernel.Tol, fixed, cfg, 0)
			}
		}
	}
	requireFixedWidths(t)
	requireNarrowedStates(t)
	path := filepath.Join("testdata", "width_decisions.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("%s drifted (go test ./internal/exec -run %s -update):\n%s", path, t.Name(), out.Bytes())
	}
}

// requireFixedWidths checks that the switch, the three oracle modes, an
// inspector site, a bound read from an index array and a cyclic placement
// each keep all P workers of a runner whose width the estimate would
// narrow.
func requireFixedWidths(t *testing.T) {
	t.Helper()
	k, err := suite.Get("jacobi1d")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"N": 64, "T": 3000}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	decide := func(what string, c *core.Compiled, cfg exec.Config, baseline bool, why string) {
		t.Helper()
		newRunner := c.NewRunner
		if baseline {
			newRunner = c.NewBaselineRunner
		}
		r, err := newRunner(cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if d := r.WidthDecision(); d.W != cfg.Workers || !strings.Contains(d.Fixed, why) {
			t.Errorf("%s: %v, want the width fixed at P=%d by %q", what, d, cfg.Workers, why)
		}
	}
	cfg := exec.Config{Workers: 2, Params: params}
	if r, err := c.NewRunner(cfg); err != nil || r.Width() != 1 {
		t.Fatalf("jacobi1d at %v: %v, want width 1", params, err)
	}
	for _, mode := range []struct {
		why string
		set func(*exec.Config)
	}{
		{"FixedWidth", func(c *exec.Config) { c.FixedWidth = true }},
		{"sanitizer", func(c *exec.Config) { c.Sanitize = true }},
		{"chaos", func(c *exec.Config) { c.ChaosSeed = 7 }},
		{"sabotage", func(c *exec.Config) { c.SabotageEdge = 1 }},
	} {
		cfg := cfg
		mode.set(&cfg)
		decide(mode.why, c, cfg, false, mode.why)
	}
	cyclic, err := core.Compile(k.Source, core.Options{Decomp: decomp.Cyclic})
	if err != nil {
		t.Fatal(err)
	}
	decide("cyclic placement", cyclic, cfg, false, "not block-placed")
	for _, name := range []string{"gatherscatter", "spmvcsr"} {
		k, err := suite.GetIrregular(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.Compile(k.Source, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := exec.Config{Workers: 2, Params: map[string]int64{"N": 16, "T": 1}}
		decide(name+" inspector site", c, cfg, false, "inspector")
		if name == "spmvcsr" {
			decide("spmvcsr fork-join CSR rows", c, cfg, true, "do not evaluate")
		}
	}
}

// requireNarrowedStates runs every kernel of both suites at test sizes, under
// the optimized schedule and the fork-join baseline, on 1, 2 and 3 of P=4
// workers, whatever the decision, and holds each final state to the
// fixed-width run's.
func requireNarrowedStates(t *testing.T) {
	t.Helper()
	for _, k := range append(suite.Kernels(), suite.IrregularKernels()...) {
		c, err := core.Compile(k.Source, core.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", k.Name, err)
		}
		for _, l := range legs(c) {
			cfg := exec.Config{Workers: 4, Params: clampParams(k.Params)}
			fixed := cfg
			fixed.FixedWidth = true
			for w := 1; w < cfg.Workers; w++ {
				requireSameFinalState(t, fmt.Sprintf("%s %s width %d of 4", k.Name, l.label, w),
					l.newRunner, k.Tol, fixed, cfg, w)
			}
		}
	}
}

func paramString(params map[string]int64) string {
	var parts []string
	for name, v := range params {
		parts = append(parts, fmt.Sprintf("%s=%d", name, v))
	}
	slices.Sort(parts)
	return strings.Join(parts, " ")
}

// requireSameFinalState fails unless the runs of newRunner's schedule under
// the two configurations leave the same state: bitwise, or within tol for a
// kernel with reductions (a narrower team folds other partials). A positive
// width overrides the narrowed runner's own.
func requireSameFinalState(t *testing.T, label string, newRunner func(exec.Config) (*core.Runner, error),
	tol float64, fixed, narrowed exec.Config, width int) {
	t.Helper()
	var states [2]*interp.State
	var c *core.Compiled
	for i, cfg := range []exec.Config{fixed, narrowed} {
		r, err := newRunner(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if i == 1 && width > 0 {
			exec.SetWidth(r.Runner, width)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		states[i], c = res.State, r.Compiled()
	}
	if d := exec.ComparableDiff(states[0], states[1], c.Prog); d > tol {
		t.Errorf("%s: the narrowed run's state differs from the fixed-width run's by %g", label, d)
	}
}
