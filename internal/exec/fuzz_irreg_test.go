package exec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/syncopt"
)

// irregGen generates random index-array programs in the shape the
// irregular-access tier targets: a guarded setup prefix building one or
// two index arrays by recognized recurrences (identity, saturating
// monotone, modular rotation), parallel initialization loops, then a time
// loop whose parallel loops gather and scatter through the index arrays.
// Every program is differential-tested: the optimized schedule (value-
// fact eliminations and runtime inspector scans included) must reproduce
// the sequential interpreter's state exactly, stay certifiable, survive
// chaos timing under the sanitizer, and lose certification when any kept
// site is dropped.
type irregGen struct {
	rng *rand.Rand
	sb  strings.Builder
}

// setupRecurrence emits the guarded recurrence initializing index array
// p, returning a human label for failure messages. Every shape is one
// the value lattice recognizes, but with different resulting facts —
// identity gives content+permutation (static elimination), saturating
// min gives monotone range (inspector, usually conflict-free), rotation
// gives range only (inspector with real waits).
//
// When mustInject is true the emitted map is guaranteed injective for
// the given N: the generated programs scatter through it in explicitly
// parallel loops, and a non-injective scatter destination would be an
// intra-loop write-write race the `parallel do` annotation (the user's
// assertion) forbids — a generator bug, not a compiler one. Gather-only
// maps may be arbitrary.
func (g *irregGen) setupRecurrence(p string, n int64, mustInject bool) string {
	switch g.rng.Intn(3) {
	case 0: // identity permutation: content fact, static elimination tier
		fmt.Fprintf(&g.sb, "%s(1) = 1.0\n", p)
		fmt.Fprintf(&g.sb, "do kk = 2, N\n  %s(kk) = %s(kk - 1) + 1.0\nend do\n", p, p)
		return "identity"
	case 1: // saturating monotone map: range + monotone facts. Step 1
		// saturates only at k=N (injective); step 2 folds the tail onto
		// N (gather-only).
		step := 1
		if !mustInject && g.rng.Intn(2) == 0 {
			step = 2
		}
		fmt.Fprintf(&g.sb, "%s(1) = 1.0\n", p)
		fmt.Fprintf(&g.sb, "do kk = 2, N\n  %s(kk) = min(%s(kk - 1) + %d.0, N)\nend do\n",
			p, p, step)
		return "saturating"
	default: // modular rotation: range fact only, inspector waits. The
		// orbit covers all of [1, N] (injective) iff gcd(N, s+1) = 1;
		// stride 0 (rotate by one, the edgerelax shape) always is, so the
		// retry loop terminates for every N.
		s := g.rng.Intn(6)
		for mustInject && gcd(n, int64(s+1)) != 1 {
			s = g.rng.Intn(s + 1) // shrinks toward 0, which always works
		}
		fmt.Fprintf(&g.sb, "%s(1) = %d.0\n", p, 1+g.rng.Intn(3))
		fmt.Fprintf(&g.sb, "do kk = 2, N\n  %s(kk) = mod(%s(kk - 1) + %d.0, N) + 1.0\nend do\n",
			p, p, s)
		return "rotation"
	}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *irregGen) generate(seed int64) (src, shape string, params map[string]int64) {
	g.rng = rand.New(rand.NewSource(seed))
	g.sb.Reset()
	params = map[string]int64{
		"N": int64(16 + g.rng.Intn(48)),
		"T": int64(1 + g.rng.Intn(3)),
	}

	twoMaps := g.rng.Intn(3) == 0
	fmt.Fprintf(&g.sb, "program irrfuzz%d\nparam N, T\n", seed)
	decls := []string{"A(N)", "B(N)", "p(max(N, 1))"}
	if twoMaps {
		decls = append(decls, "q(max(N, 1))")
	}
	fmt.Fprintf(&g.sb, "real %s\n", strings.Join(decls, ", "))

	// Guarded setup prefix: every index array is fully built before the
	// first parallel statement (the freeze rule). p is the scatter
	// destination, so it must be injective for this N; q is gather-only.
	shape = g.setupRecurrence("p", params["N"], true)
	if twoMaps {
		shape += "+" + g.setupRecurrence("q", params["N"], false)
	}

	// Parallel data initialization, after the setup prefix.
	fmt.Fprintln(&g.sb, "parallel do i = 1, N")
	fmt.Fprintf(&g.sb, "  A(i) = 0.5 + 0.00%d * i\n", 1+g.rng.Intn(9))
	fmt.Fprintln(&g.sb, "end do")
	fmt.Fprintln(&g.sb, "parallel do i = 1, N")
	fmt.Fprintln(&g.sb, "  B(i) = 1.0")
	fmt.Fprintln(&g.sb, "end do")

	// Time loop: 2-3 parallel loops communicating through the maps.
	fmt.Fprintln(&g.sb, "do t = 1, T")
	gatherMap := "p"
	if twoMaps && g.rng.Intn(2) == 0 {
		gatherMap = "q"
	}
	nLoops := 2 + g.rng.Intn(2)
	for l := 0; l < nLoops; l++ {
		switch g.rng.Intn(3) {
		case 0: // scatter through the map
			fmt.Fprintln(&g.sb, "  parallel do i = 1, N")
			fmt.Fprintf(&g.sb, "    B(p(i)) = A(i) * 0.%d + 0.1\n", 3+g.rng.Intn(6))
			fmt.Fprintln(&g.sb, "  end do")
		case 1: // gather through the map
			fmt.Fprintln(&g.sb, "  parallel do i = 1, N")
			fmt.Fprintf(&g.sb, "    A(i) = B(%s(i)) * 0.%d + A(i) * 0.25\n",
				gatherMap, 2+g.rng.Intn(5))
			fmt.Fprintln(&g.sb, "  end do")
		default: // read-modify-write scatter (relaxation shape)
			fmt.Fprintln(&g.sb, "  parallel do e = 1, N")
			fmt.Fprintf(&g.sb, "    B(p(e)) = B(p(e)) * 0.9%d + A(e) * 0.01\n", g.rng.Intn(9))
			fmt.Fprintln(&g.sb, "  end do")
		}
	}
	fmt.Fprintln(&g.sb, "end do")
	fmt.Fprintln(&g.sb, "end")
	return g.sb.String(), shape, params
}

// TestFuzzIrregularDifferential is the inspector-vs-interpreter
// differential: for each random index-array program, the optimized SPMD
// execution (inspector scans, point-to-point waits, value-fact
// eliminations) must reproduce the sequential interpreter's final state
// exactly — assignments only, so no roundoff tolerance applies. Each
// schedule must also verify, certify (with conditional records only at
// inspector sites), reject every single-site drop, and stay sanitizer-
// clean under chaos timing.
func TestFuzzIrregularDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz loop skipped in -short mode")
	}
	var g irregGen
	inspectorSites, eliminated := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		src, shape, params := g.generate(seed)
		c, err := core.Compile(src, core.Options{})
		if err != nil {
			t.Fatalf("seed %d (%s): compile error: %v\n--- source ---\n%s", seed, shape, err, src)
		}
		if errs := syncopt.Verify(c.Analyzer, c.Schedule); len(errs) > 0 {
			t.Fatalf("seed %d (%s): schedule verification: %v\n--- source ---\n%s\n--- schedule ---\n%s",
				seed, shape, errs[0], src, c.Schedule.Dump())
		}
		st := c.Schedule.Static()
		inspectorSites += st.Inspectors
		eliminated += st.None

		cs := core.ToCertify(c.Schedule.Lower())
		an := certify.Analyze(c.Prog, cs, c.CertifyOptions())
		if len(an.OracleErrs) > 0 {
			t.Fatalf("seed %d (%s): solver oracle disagreement: %v\n--- source ---\n%s",
				seed, shape, an.OracleErrs[0], src)
		}
		cert, viols := an.Check(cs)
		if len(viols) > 0 {
			t.Fatalf("seed %d (%s): certifier rejected the verified schedule:\n%s--- source ---\n%s\n--- schedule ---\n%s",
				seed, shape, certify.RenderViolations(viols), src, c.Schedule.Dump())
		}
		for _, f := range cert.Flows {
			for _, ob := range f.OrderedBy {
				if ob.Conditional != (ob.Primitive == certify.KindInspector.String()) {
					t.Fatalf("seed %d (%s): flow %s g%d->g%d ordered by %s with conditional=%v\n--- source ---\n%s",
						seed, shape, f.Region, f.From, f.To, ob.Primitive, ob.Conditional, src)
				}
			}
		}
		for id, kind := range cs.Kinds() {
			if kind == certify.KindNone {
				continue
			}
			if _, viols := an.Check(cs.DropSite(id)); len(viols) == 0 {
				t.Fatalf("seed %d (%s): dropping sync site %d (%s) still certifies\n--- source ---\n%s\n--- schedule ---\n%s",
					seed, shape, id, kind, src, c.Schedule.Dump())
			}
		}

		ref, err := c.RunSequential(params)
		if err != nil {
			t.Fatalf("seed %d (%s): sequential: %v\n%s", seed, shape, err, src)
		}
		for _, workers := range []int{2, 5, 7} {
			r, err := c.NewRunner(exec.Config{Workers: workers, Params: params})
			if err != nil {
				t.Fatalf("seed %d (%s): runner: %v", seed, shape, err)
			}
			res, err := r.Run()
			if err != nil {
				t.Fatalf("seed %d (%s) P=%d: run: %v\n%s", seed, shape, workers, err, src)
			}
			if d := exec.ComparableDiff(ref, res.State, c.Prog); d > 0 {
				t.Fatalf("seed %d (%s) P=%d diverges by %g\n--- source ---\n%s\n--- schedule ---\n%s",
					seed, shape, workers, d, src, c.Schedule.Dump())
			}
			if st.Inspectors > 0 && len(res.Inspector) != st.Inspectors {
				t.Fatalf("seed %d (%s) P=%d: %d inspector sites scheduled, %d reported\n%s",
					seed, shape, workers, st.Inspectors, len(res.Inspector), src)
			}
		}

		// Chaos + sanitizer: adversarial timing must neither corrupt the
		// state nor reveal an unordered cross-worker flow at the
		// inspector-synthesized waits.
		r, err := c.NewRunner(exec.Config{Workers: 4, Params: params,
			ChaosSeed: seed*2654435761 + 7, Sanitize: true})
		if err != nil {
			t.Fatalf("seed %d (%s): chaos runner: %v", seed, shape, err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("seed %d (%s) chaos: run: %v\n%s", seed, shape, err, src)
		}
		if d := exec.ComparableDiff(ref, res.State, c.Prog); d > 0 {
			t.Fatalf("seed %d (%s) chaos diverges by %g\n--- source ---\n%s\n--- schedule ---\n%s",
				seed, shape, d, src, c.Schedule.Dump())
		}
		if !res.Sanitizer.Clean() {
			t.Fatalf("seed %d (%s): sanitizer flagged the schedule:\n%s\n--- source ---\n%s\n--- schedule ---\n%s",
				seed, shape, res.Sanitizer, src, c.Schedule.Dump())
		}
	}
	// The generator must actually exercise both irregular tiers across
	// the seed range, or the differential is vacuous.
	if inspectorSites == 0 {
		t.Error("no generated program scheduled an inspector site")
	}
	if eliminated == 0 {
		t.Error("no generated program eliminated a boundary")
	}
	t.Logf("across seeds: %d inspector sites, %d eliminated boundaries", inspectorSites, eliminated)
}
