package suite

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/exec"
)

// TestFDOPropertySuite drives the full feedback loop over every kernel —
// the 16 regular kernels plus the 4 irregular ones, whose inspector sites
// the profile must round-trip untouched — at P ∈ {2, 4, 8}, and pins the
// pass's contract:
//
//   - determinism: re-optimizing the same compilation against the same
//     profile twice yields identical decisions and identical schedules;
//   - soundness: every schedule-changing decision is certifier-approved,
//     the re-optimized compilation re-certifies from scratch, and the
//     flipped schedule still computes the sequential answer;
//   - convergence: a second feedback iteration, fed the re-optimized
//     schedule's own profile, never reverts a flip (it may only make
//     further certified progress, so iteration is non-worse).
func TestFDOPropertySuite(t *testing.T) {
	kernels := append(append([]Kernel(nil), Kernels()...), IrregularKernels()...)
	for _, k := range kernels {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := c.RunSequential(k.Params)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{2, 4, 8} {
				p := p
				t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
					r, err := c.NewRunner(exec.Config{
						Workers: p, Params: k.Params, Trace: true, FixedWidth: true})
					if err != nil {
						t.Fatal(err)
					}
					res, err := r.Run()
					if err != nil {
						t.Fatal(err)
					}
					prof := r.Profile(res)

					// Determinism: same compilation, same profile, twice.
					c2, fres, err := c.Reoptimize(prof)
					if err != nil {
						t.Fatal(err)
					}
					_, fres2, err := c.Reoptimize(prof)
					if err != nil {
						t.Fatal(err)
					}
					if len(fres.Decisions) != len(fres2.Decisions) {
						t.Fatalf("decision counts differ across identical runs: %d vs %d",
							len(fres.Decisions), len(fres2.Decisions))
					}
					for i := range fres.Decisions {
						if fres.Decisions[i] != fres2.Decisions[i] {
							t.Fatalf("decision %d differs across identical runs:\n%+v\n%+v",
								i, fres.Decisions[i], fres2.Decisions[i])
						}
					}

					// Soundness: every flip certified, whole schedule re-proved.
					flipped := map[int]string{} // site -> class flipped to
					for _, d := range fres.Decisions {
						switch d.Action {
						case "weaken", "promote":
							if !d.Certified {
								t.Fatalf("uncertified %s at site %d: %+v", d.Action, d.Site, d)
							}
							flipped[d.Site] = d.To
						}
					}
					if _, viols, err := c2.Certify(); err != nil {
						t.Fatalf("certifier oracle on re-optimized schedule: %v", err)
					} else if len(viols) != 0 {
						t.Fatalf("re-optimized schedule rejected by the certifier (%d flows)", len(viols))
					}
					for i, b := range c2.Schedule.Boundaries() {
						if to, ok := flipped[i+1]; ok && b.Class.String() != to {
							t.Fatalf("site %d decision says %q but schedule has %s", i+1, to, b.Class)
						}
						if b.Class == comm.ClassNone && b.FDO != nil && b.FDO.Action == "weaken" {
							// Inspector sites must never silently vanish.
							if b.FDO.From == "inspector" {
								t.Fatalf("site %d: inspector weakened to none", i+1)
							}
						}
					}

					// The flipped schedule still computes the answer.
					r2, err := c2.NewRunner(exec.Config{
						Workers: p, Params: k.Params, Trace: true, FixedWidth: true})
					if err != nil {
						t.Fatal(err)
					}
					res2, err := r2.Run()
					if err != nil {
						t.Fatal(err)
					}
					if d := exec.ComparableDiff(seq, res2.State, c.Prog); d > k.Tol {
						t.Fatalf("re-optimized output diverges from sequential: diff %g > tol %g (%d flips)",
							d, k.Tol, fres.Flips)
					}

					// Convergence: the second iteration must not oscillate.
					prof2 := r2.Profile(res2)
					_, fres3, err := c2.Reoptimize(prof2)
					if err != nil {
						t.Fatal(err)
					}
					for _, d := range fres3.Decisions {
						if d.Action != "promote" {
							continue
						}
						if _, was := flipped[d.Site]; was {
							t.Fatalf("iteration 2 reverts iteration 1's flip at site %d: %+v", d.Site, d)
						}
					}
				})
			}
		})
	}
}
