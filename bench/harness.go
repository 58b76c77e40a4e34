package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/linear"
	"repro/internal/spmdrt"
	"repro/internal/syncopt"
)

// span is one harness-side trace record: the interval of one call into a
// layer (or of the harness step that made the calls), with the span that
// caused it. Spans are kept in memory and written when the pass ends; a
// layer's self time is its span minus what its children cover.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start"`
	EndNS    int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Program  string `json:"kernel,omitempty"`
}

// harness is one pass over one workload: closed loop, one client, one
// process, P workers.
type harness struct {
	wl     *workload
	seed   int64
	p      int
	traced bool
	quick  bool
	rng    *rand.Rand
	epoch  time.Time
	spans  []span
	open   []int
	setups []float64
	spin   []float64

	attempted, failed int
	failures          []string
}

// progState is everything the harness holds about one program of the
// workload between set-up and report.
type progState struct {
	prog    program
	params  map[string]int64
	c       *core.Compiled
	dump    string
	opt     *core.Runner
	base    *core.Runner
	traced  *core.Runner
	ref     *interp.State
	assigns int64
	// tol is the program's tolerance scaled by the largest magnitude in
	// the reference state: a reduction's roundoff grows with the sum.
	tol float64

	static, baseStatic syncopt.StaticCounts
	fm                 linear.CostSnapshot
	optStats           spmdrt.StatsSnapshot
	baseStats          spmdrt.StatsSnapshot
	inspector          map[int]exec.InspectorSite

	// series holds the samples of every timed or sized quantity, keyed by
	// a name that ends in its unit.
	series map[string][]float64
	// done counts how often each operation class ran, for pair parity.
	done map[string]int
}

func (k *progState) add(series string, v float64) {
	k.series[series] = append(k.series[series], v)
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// check counts one operation and, when it failed, why.
func (h *harness) check(ok bool, format string, args ...any) {
	h.attempted++
	if !ok {
		h.failed++
		if len(h.failures) < 20 {
			h.failures = append(h.failures, fmt.Sprintf(format, args...))
		}
	}
}

// timeCall times f. In the traced pass it also records a span around the
// call, a child of whichever span is open.
func (h *harness) timeCall(name string, k *progState, f func()) time.Duration {
	id := -1
	if h.traced {
		parent := -1
		if n := len(h.open); n > 0 {
			parent = h.open[n-1]
		}
		id = len(h.spans)
		sp := span{Name: name, Parent: parent, Workload: h.wl.name}
		if k != nil {
			sp.Program = k.prog.name
		}
		h.spans = append(h.spans, sp)
		h.open = append(h.open, id)
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	if id >= 0 {
		h.spans[id].StartNS = t0.Sub(h.epoch).Nanoseconds()
		h.spans[id].EndNS = h.spans[id].StartNS + d.Nanoseconds()
		h.open = h.open[:len(h.open)-1]
	}
	return d
}

func (h *harness) writeTrace(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(h.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace."+h.wl.name+".json"), raw, 0o644)
}

// setUp builds everything a measurement needs from the generated inputs:
// it compiles every program, builds its runners, computes the sequential
// reference and warms the team pool. It is timed as setup_s. The two
// compiles and the two opt/base pairs per program double as the
// determinism check and as the discarded warm-up pairs.
func (h *harness) setUp(progs []program, params []map[string]int64) ([]*progState, error) {
	var out []*progState
	for i, p := range progs {
		k := &progState{prog: p, params: params[i],
			series: map[string][]float64{}, done: map[string]int{}}
		c0 := linear.Costs()
		c, err := core.Compile(p.source, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", p.name, err)
		}
		k.c, k.fm, k.dump = c, linear.Costs().Sub(c0), c.Schedule.Dump()
		k.static, k.baseStatic = c.Schedule.Static(), c.Baseline.Static()
		c0 = linear.Costs()
		again, err := core.Compile(p.source, core.Options{})
		h.check(err == nil && again.Schedule.Dump() == k.dump &&
			again.Schedule.Static() == k.static && linear.Costs().Sub(c0) == k.fm,
			"%s: two compiles of one source differ", p.name)

		cfg := exec.Config{Workers: h.p, Mode: exec.SPMD, Params: k.params}
		if k.opt, err = c.NewRunner(cfg); err != nil {
			return nil, fmt.Errorf("%s: runner: %w", p.name, err)
		}
		if k.base, err = c.NewBaselineRunner(cfg); err != nil {
			return nil, fmt.Errorf("%s: baseline runner: %w", p.name, err)
		}
		cfg.Trace = true
		if k.traced, err = c.NewRunner(cfg); err != nil {
			return nil, fmt.Errorf("%s: traced runner: %w", p.name, err)
		}

		t0 := time.Now()
		k.ref, k.assigns, err = interp.RunCount(c.Prog, k.params)
		if err != nil {
			return nil, fmt.Errorf("%s: sequential reference: %w", p.name, err)
		}
		k.add("seq_ms", msOf(time.Since(t0)))
		k.tol = p.tol * math.Max(1, magnitude(k.ref, c.Prog))

		for pair := 0; pair < 2; pair++ {
			for _, side := range []struct {
				r     *core.Runner
				stats *spmdrt.StatsSnapshot
			}{{k.opt, &k.optStats}, {k.base, &k.baseStats}} {
				res, err := side.r.Runner.Run()
				if err != nil {
					return nil, fmt.Errorf("%s: warm-up run: %w", p.name, err)
				}
				h.verifyState(k, res.State, "warm-up run")
				got := res.Stats
				got.PerSite = nil
				if pair == 0 {
					*side.stats = got
				} else {
					h.check(got.String() == side.stats.String(),
						"%s: two runs of one schedule count %s and %s", p.name, got, *side.stats)
				}
				if side.r == k.opt {
					k.inspector = res.Inspector
				}
			}
		}
		out = append(out, k)
	}
	return out, nil
}

// verifyState compares a final state with the sequential reference. It
// runs after the clock has stopped, on every timed run.
func (h *harness) verifyState(k *progState, got *interp.State, what string) {
	d := exec.ComparableDiff(k.ref, got, k.c.Prog)
	h.check(d <= k.tol, "%s: %s differs from the sequential reference by %g", k.prog.name, what, d)
}

// magnitude is the largest absolute value a state holds.
func magnitude(st *interp.State, prog *ir.Program) float64 {
	m := 0.0
	for _, v := range st.Scalars {
		m = math.Max(m, math.Abs(v))
	}
	for _, decl := range prog.Arrays {
		for _, v := range st.Array(decl.Name).Data {
			m = math.Max(m, math.Abs(v))
		}
	}
	return m
}

// opClass is one kind of operation a pass repeats on every program.
type opClass struct {
	name  string
	share float64
	do    func(k *progState, i int)
}

// rounds is how many rounds a pass aims for after its sizing round; the
// deadline, not this count, ends the pass.
const rounds = 11

// measure runs the classes over the programs for budget seconds. Round 0
// runs every class once on every program and measures what each costs;
// the remaining time is divided by the classes' shares into a common
// per-round count per class, so every program of the workload collects
// the same number of samples. Each later round visits the programs in a
// freshly shuffled order.
func (h *harness) measure(budget time.Duration, ks []*progState, classes []opClass) {
	deadline := time.Now().Add(budget)
	cost := make([]time.Duration, len(classes))
	run := func(ci int, k *progState) {
		c := classes[ci]
		t0 := time.Now()
		h.timeCall(c.name, k, func() { c.do(k, k.done[c.name]) })
		k.done[c.name]++
		cost[ci] += time.Since(t0)
	}
	for _, k := range ks {
		h.spinSample()
		for ci := range classes {
			run(ci, k)
		}
	}
	if h.quick {
		return
	}
	left := time.Until(deadline)
	totalShare := 0.0
	for _, c := range classes {
		totalShare += c.share
	}
	quotas := make([]quota, len(classes))
	for ci, c := range classes {
		if cost[ci] > 0 && left > 0 {
			quotas[ci].rate = left.Seconds() * c.share / totalShare / rounds / cost[ci].Seconds()
		}
	}
	for time.Now().Before(deadline) {
		counts := make([]int, len(classes))
		for ci := range quotas {
			counts[ci] = quotas[ci].take()
		}
		for _, ki := range roundOrder(h.rng, len(ks)) {
			if !time.Now().Before(deadline) {
				return
			}
			h.spinSample()
			for ci, n := range counts {
				for j := 0; j < n; j++ {
					run(ci, ks[ki])
				}
			}
		}
	}
}
