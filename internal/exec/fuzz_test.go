package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/remarks"
	"repro/internal/syncopt"
)

// progGen generates random but valid DSL programs exercising the shapes
// the optimizer reasons about: parallel stencil loops with shifted writes
// and reads, guarded boundary statements, replicated constants, private
// temps and reductions, all inside a sequential time loop. Each generated
// program is compiled and executed sequentially, fork-join and SPMD; the
// three results must agree. This fuzzes the entire pipeline — parser,
// dependence analysis, parallelizer, partitioner, communication analysis,
// greedy eliminator, runtime — against the sequential semantics.
type progGen struct {
	rng *rand.Rand
	sb  strings.Builder
	// names of 1D arrays (extent N) and 2D arrays (N x N)
	oneD, twoD []string
	hasRed     bool
	// oob appends a loop in which one read runs one past the array's extent
	// at the last iteration, so the program must fault — on every engine,
	// in every mode, with the same message. (A read, because an
	// owner-computes placement clips its slices to the extent of the array
	// stored to: the iteration of an out-of-range store runs on no worker.)
	oob bool
}

func (g *progGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

func (g *progGen) offset(max int) string {
	d := g.rng.Intn(2*max+1) - max
	switch {
	case d > 0:
		return fmt.Sprintf(" + %d", d)
	case d < 0:
		return fmt.Sprintf(" - %d", -d)
	default:
		return ""
	}
}

// readExpr produces a bounded-magnitude arithmetic expression reading
// random arrays at small offsets of the given index names.
func (g *progGen) readExpr(idx ...string) string {
	terms := 1 + g.rng.Intn(3)
	var parts []string
	for t := 0; t < terms; t++ {
		coef := fmt.Sprintf("0.%d", 1+g.rng.Intn(3))
		var ref string
		if len(idx) == 2 && len(g.twoD) > 0 && g.rng.Intn(2) == 0 {
			ref = fmt.Sprintf("%s(%s%s, %s%s)", g.pick(g.twoD),
				idx[0], g.offset(2), idx[1], g.offset(2))
		} else {
			ref = fmt.Sprintf("%s(%s%s)", g.pick(g.oneD), idx[0], g.offset(2))
		}
		parts = append(parts, coef+" * "+ref)
	}
	return strings.Join(parts, " + ")
}

func (g *progGen) generate(seed int64) (src string, tol float64) {
	g.rng = rand.New(rand.NewSource(seed))
	g.sb.Reset()
	g.oneD = []string{"A0", "A1", "A2"}
	if g.rng.Intn(2) == 0 {
		g.twoD = []string{"M0"}
	} else {
		g.twoD = nil
	}

	fmt.Fprintf(&g.sb, "program fuzz%d\nparam N, T\n", seed)
	decls := []string{}
	for _, a := range g.oneD {
		decls = append(decls, a+"(N)")
	}
	for _, a := range g.twoD {
		decls = append(decls, a+"(N, N)")
	}
	decls = append(decls, "s", "c")
	fmt.Fprintf(&g.sb, "real %s\n", strings.Join(decls, ", "))

	fmt.Fprintln(&g.sb, "c = 0.75")
	fmt.Fprintln(&g.sb, "do t = 1, T")

	nLoops := 2 + g.rng.Intn(3)
	for l := 0; l < nLoops; l++ {
		switch g.rng.Intn(7) {
		case 0: // 2D stencil loop (if a 2D array exists)
			if len(g.twoD) > 0 {
				w := g.pick(g.twoD)
				fmt.Fprintln(&g.sb, "  do i = 3, N - 2")
				fmt.Fprintln(&g.sb, "    do j = 3, N - 2")
				fmt.Fprintf(&g.sb, "      %s(i, j) = %s + 0.1 * c\n", w, g.readExpr("i", "j"))
				fmt.Fprintln(&g.sb, "    end do")
				fmt.Fprintln(&g.sb, "  end do")
				continue
			}
			fallthrough
		case 1: // reduction loop
			if !g.hasRed {
				g.hasRed = true
				fmt.Fprintln(&g.sb, "  do i = 3, N - 2")
				fmt.Fprintf(&g.sb, "    s = s + %s\n", g.readExpr("i"))
				fmt.Fprintln(&g.sb, "  end do")
				continue
			}
			fallthrough
		case 2: // loop with a private temp
			w := g.pick(g.oneD)
			fmt.Fprintln(&g.sb, "  do i = 3, N - 2")
			fmt.Fprintf(&g.sb, "    c = %s\n", g.readExpr("i"))
			fmt.Fprintf(&g.sb, "    %s(i%s) = c * 0.5\n", w, g.offset(1))
			fmt.Fprintln(&g.sb, "  end do")
		case 3: // guarded boundary statement
			w := g.pick(g.oneD)
			r := g.pick(g.oneD)
			fmt.Fprintf(&g.sb, "  %s(%d) = %s(%d) * 0.5\n", w, 1+g.rng.Intn(2), r, 1+g.rng.Intn(3))
		case 4: // conditional stencil
			w := g.pick(g.oneD)
			fmt.Fprintln(&g.sb, "  do i = 3, N - 2")
			fmt.Fprintf(&g.sb, "    if i > %d then\n", 4+g.rng.Intn(4))
			fmt.Fprintf(&g.sb, "      %s(i%s) = %s\n", w, g.offset(1), g.readExpr("i"))
			fmt.Fprintln(&g.sb, "    end if")
			fmt.Fprintln(&g.sb, "  end do")
		case 5: // in-place serial recurrence → wavefront relay
			w := g.pick(g.oneD)
			fmt.Fprintln(&g.sb, "  do i = 3, N - 2")
			fmt.Fprintf(&g.sb, "    %s(i) = 0.3 * %s(i - 1) + %s\n", w, w, g.readExpr("i"))
			fmt.Fprintln(&g.sb, "  end do")
		default: // plain shifted-write stencil loop
			w := g.pick(g.oneD)
			fmt.Fprintln(&g.sb, "  do i = 3, N - 2")
			fmt.Fprintf(&g.sb, "    %s(i%s) = %s\n", w, g.offset(1), g.readExpr("i"))
			fmt.Fprintln(&g.sb, "  end do")
		}
	}
	if g.oob {
		fmt.Fprintln(&g.sb, "  do i = 3, N - 2")
		fmt.Fprintf(&g.sb, "    %s(i) = %s + 0.5 * %s(i + 3)\n", g.pick(g.oneD), g.readExpr("i"), g.pick(g.oneD))
		fmt.Fprintln(&g.sb, "  end do")
	}
	fmt.Fprintln(&g.sb, "end do")
	fmt.Fprintln(&g.sb, "end")
	if g.hasRed {
		tol = 1e-9
	}
	// c is written both replicated (c = 0.75) and privately inside
	// loops; the pipeline must handle or reject this soundly. s is a
	// reduction target.
	return g.sb.String(), tol
}

func TestFuzzPipelineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz loop skipped in -short mode")
	}
	var g progGen
	for seed := int64(1); seed <= 120; seed++ {
		g.hasRed = false
		// Every sixth program runs one subscript past an extent.
		g.oob = seed%6 == 0
		src, tol := g.generate(seed)
		c, err := core.Compile(src, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: compile error: %v\n--- source ---\n%s", seed, err, src)
		}
		if errs := syncopt.Verify(c.Analyzer, c.Schedule); len(errs) > 0 {
			t.Fatalf("seed %d: schedule verification: %v\n--- source ---\n%s\n--- schedule ---\n%s",
				seed, errs[0], src, c.Schedule.Dump())
		}
		// Independent static certification: the clean-room certifier must
		// agree the schedule is sound, and must reject every single-edge
		// sabotage of it.
		cs := core.ToCertify(c.Schedule.Lower())
		an := certify.Analyze(c.Prog, cs, c.CertifyOptions())
		if len(an.OracleErrs) > 0 {
			t.Fatalf("seed %d: solver oracle disagreement: %v\n--- source ---\n%s",
				seed, an.OracleErrs[0], src)
		}
		if _, viols := an.Check(cs); len(viols) > 0 {
			t.Fatalf("seed %d: certifier rejected the verified schedule:\n%s--- source ---\n%s\n--- schedule ---\n%s",
				seed, certify.RenderViolations(viols), src, c.Schedule.Dump())
		}
		for id, kind := range siteKinds(cs) {
			if kind == certify.KindNone {
				continue
			}
			if _, viols := an.Check(cs.DropSite(id)); len(viols) == 0 {
				t.Fatalf("seed %d: dropping sync site %d (%s) still certifies\n--- source ---\n%s\n--- schedule ---\n%s",
					seed, id, kind, src, c.Schedule.Dump())
			}
		}
		// Remark coverage invariant: every emitted sync site has exactly
		// one remark, under the same global id and with the primitive the
		// schedule actually carries — for the optimized and the baseline
		// schedule alike.
		for _, sch := range []struct {
			name  string
			set   *remarks.Set
			kinds []certify.Kind
		}{
			{"opt", c.Remarks(), siteKinds(cs)},
			{"base", c.Baseline.Remarks(), siteKinds(core.ToCertify(c.Baseline.Lower()))},
		} {
			if len(sch.set.Remarks) != len(sch.kinds) {
				t.Fatalf("seed %d: %s schedule has %d sync sites but %d remarks\n--- source ---\n%s",
					seed, sch.name, len(sch.kinds), len(sch.set.Remarks), src)
			}
			for i, r := range sch.set.Remarks {
				if r.Site != i+1 {
					t.Fatalf("seed %d: %s remark %d carries site id %d\n--- source ---\n%s",
						seed, sch.name, i, r.Site, src)
				}
				if r.Primitive != sch.kinds[i].String() {
					t.Fatalf("seed %d: %s site %d remark says %s, schedule has %s\n--- source ---\n%s",
						seed, sch.name, r.Site, r.Primitive, sch.kinds[i], src)
				}
			}
		}
		params := map[string]int64{"N": int64(16 + g.rng.Intn(40)), "T": int64(1 + g.rng.Intn(4))}
		if g.oob {
			requireSameFault(t, seed, c, params, src)
			continue
		}
		ref, err := c.RunSequential(params)
		if err != nil {
			t.Fatalf("seed %d: sequential: %v\n%s", seed, err, src)
		}
		for _, l := range legs(c) {
			for _, workers := range []int{2, 5} {
				r, err := l.newRunner(exec.Config{Workers: workers, Params: params})
				if err != nil {
					t.Fatalf("seed %d: runner: %v", seed, err)
				}
				res, err := r.Run()
				if err != nil {
					t.Fatalf("seed %d %s P=%d: run: %v\n%s", seed, l.label, workers, err, src)
				}
				if d := exec.ComparableDiff(ref, res.State, c.Prog); d > tol {
					t.Fatalf("seed %d %s P=%d diverges by %g\n--- source ---\n%s\n--- schedule ---\n%s",
						seed, l.label, workers, d, src, c.Schedule.Dump())
				}
			}
		}
		// Engine differential: the tree-walking reference engine
		// (ref_test.go) is the oracle for the compiled closure frame.
		// Reductions fold in rank order, so both engines are deterministic
		// and the final states of the same generated program must agree bit
		// for bit — any float divergence is a lowering bug, not roundoff.
		for _, l := range legs(c) {
			var states [2]*interp.State
			for i, bk := range []string{"interp", "closure"} {
				r, err := l.newRunner(exec.Config{Workers: 3, Params: params})
				if err != nil {
					t.Fatalf("seed %d: %s runner: %v", seed, bk, err)
				}
				if bk == "interp" {
					exec.UseReferenceEngine(r.Runner)
				}
				res, err := r.Run()
				if err != nil {
					t.Fatalf("seed %d %s %s: run: %v\n%s", seed, l.label, bk, err, src)
				}
				states[i] = res.State
			}
			for _, d := range c.Prog.Arrays {
				iv, cv := states[0].Array(d.Name), states[1].Array(d.Name)
				for j := range iv.Data {
					if math.Float64bits(iv.Data[j]) != math.Float64bits(cv.Data[j]) {
						t.Fatalf("seed %d %s: backends diverge at %s[%d]: %v (interp) vs %v (closure)\n--- source ---\n%s",
							seed, l.label, d.Name, j, iv.Data[j], cv.Data[j], src)
					}
				}
			}
			for s, v := range states[0].Scalars {
				if math.Float64bits(v) != math.Float64bits(states[1].Scalars[s]) {
					t.Fatalf("seed %d %s: backends diverge at scalar %s: %v (interp) vs %v (closure)\n--- source ---\n%s",
						seed, l.label, s, v, states[1].Scalars[s], src)
				}
			}
		}

		// Robustness pass: the same program under chaos injection (seed
		// derived from the fuzz seed) with the soundness sanitizer. The
		// optimized schedule must survive adversarial timing and leave no
		// unordered cross-worker flows.
		r, err := c.NewRunner(exec.Config{Workers: 5, Params: params,
			ChaosSeed: seed*2654435761 + 1, Sanitize: true})
		if err != nil {
			t.Fatalf("seed %d: chaos runner: %v", seed, err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("seed %d chaos: run: %v\n%s", seed, err, src)
		}
		if d := exec.ComparableDiff(ref, res.State, c.Prog); d > tol {
			t.Fatalf("seed %d chaos diverges by %g\n--- source ---\n%s\n--- schedule ---\n%s",
				seed, d, src, c.Schedule.Dump())
		}
		if !res.Sanitizer.Clean() {
			t.Fatalf("seed %d: sanitizer flagged the verified schedule:\n%s\n--- source ---\n%s\n--- schedule ---\n%s",
				seed, res.Sanitizer, src, c.Schedule.Dump())
		}
	}
}

// requireSameFault runs a generated program that reads one element past
// an extent: the sequential run, and both engines in both modes at several
// team sizes, must all fail with the bounds fault — the closure engine's
// hoisted range check may not lose it, and may not turn it into anything
// else (its message is the reference engine's up to the legal-range
// suffix the interpreter appends).
func requireSameFault(t *testing.T, seed int64, c *core.Compiled, params map[string]int64, src string) {
	t.Helper()
	if _, err := c.RunSequential(params); err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("seed %d: sequential run of an out-of-bounds program: %v\n%s", seed, err, src)
	}
	for _, l := range legs(c) {
		for _, workers := range []int{2, 3, 5} {
			var msgs [2]string
			for i, ref := range []bool{true, false} {
				r, err := l.newRunner(exec.Config{Workers: workers, Params: params})
				if err != nil {
					t.Fatalf("seed %d: runner: %v", seed, err)
				}
				if ref {
					exec.UseReferenceEngine(r.Runner)
				}
				if _, err = r.Run(); err == nil {
					t.Fatalf("seed %d %s P=%d ref=%v: out-of-bounds program ran clean\n%s", seed, l.label, workers, ref, src)
				}
				msgs[i] = err.Error()
			}
			if !strings.Contains(msgs[1], "out of bounds") || !strings.HasPrefix(msgs[0], msgs[1]) {
				t.Fatalf("seed %d %s P=%d: closure engine failed with %q, reference engine with %q\n%s",
					seed, l.label, workers, msgs[1], msgs[0], src)
			}
		}
	}
}

// TestFuzzSabotageStaticDynamicAgreement cross-validates the static
// certifier against the dynamic sanitizer on sabotaged schedules of random
// programs: every single dropped sync edge must be rejected statically,
// and whenever the runtime (sanitizer, state divergence, or a run stopped
// at its deadline) catches the same drop, that dynamic evidence must never
// contradict a static acceptance. Dynamic detection is timing-sensitive so
// it need not fire on every site, but it must fire somewhere.
func TestFuzzSabotageStaticDynamicAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz loop skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("sabotaged schedules plant real data races by design; the detector reporting them is expected, not a failure (see race_on_test.go)")
	}
	var g progGen
	edges, dynCaught := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		g.hasRed = false
		src, tol := g.generate(seed)
		if tol == 0 {
			tol = 1e-12
		}
		c, err := core.Compile(src, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: compile error: %v", seed, err)
		}
		cs := core.ToCertify(c.Schedule.Lower())
		an := certify.Analyze(c.Prog, cs, c.CertifyOptions())
		params := map[string]int64{"N": int64(16 + g.rng.Intn(16)), "T": 2}
		ref, err := c.RunSequential(params)
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", seed, err)
		}
		for id, kind := range siteKinds(cs) {
			if kind == certify.KindNone {
				continue
			}
			edges++
			_, viols := an.Check(cs.DropSite(id))
			staticReject := len(viols) > 0
			if !staticReject {
				t.Errorf("seed %d: site %d (%s) drop accepted statically\n--- source ---\n%s",
					seed, id, kind, src)
			}
			r, err := c.NewRunner(exec.Config{
				Workers: 4, Params: params,
				SabotageEdge: id + 1, Sanitize: true,
				ChaosSeed: seed*2654435761 + int64(id),
			})
			if err != nil {
				t.Fatalf("seed %d: runner: %v", seed, err)
			}
			res, err := within(r.RunContext)
			dynamic := err != nil || // a run stopped at its deadline
				!res.Sanitizer.Clean() ||
				exec.ComparableDiff(ref, res.State, c.Prog) > tol
			if dynamic {
				dynCaught++
				if !staticReject {
					t.Errorf("seed %d: site %d caught dynamically but accepted statically", seed, id)
				}
			}
		}
	}
	if edges == 0 {
		t.Fatal("fuzz programs scheduled no sync edges")
	}
	if dynCaught == 0 {
		t.Errorf("dynamic checks caught none of %d dropped edges", edges)
	}
	t.Logf("static rejected %d/%d dropped edges; dynamic corroborated %d", edges, edges, dynCaught)
}

// siteKinds returns the boundary kind at every site of p, indexed by site id.
func siteKinds(p *certify.Program) []certify.Kind {
	out := make([]certify.Kind, len(p.Sites))
	for i, s := range p.Sites {
		out[i] = s.Kind
	}
	return out
}
