package suite

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
)

// TestClosureBackendChaosSanitize puts the closure backend under
// adversarial timing with the soundness sanitizer auditing every shared
// access: chaos injection must not shake out divergence, and the
// instrumented closure lowering must report the same clean cross-worker
// flow ordering the interpreter backend established.
func TestClosureBackendChaosSanitize(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			ref, err := c.RunSequential(k.Params)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			r, err := c.NewRunner(exec.Config{
				Workers: 8, Params: k.Params,
				ChaosSeed: 42, Sanitize: true})
			if err != nil {
				t.Fatalf("runner: %v", err)
			}
			res, err := r.Run()
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			if d := exec.ComparableDiff(ref, res.State, c.Prog); d > k.Tol {
				t.Fatalf("closure backend diverges from sequential by %g under chaos", d)
			}
			if res.Sanitizer == nil || !res.Sanitizer.Clean() {
				t.Fatalf("sanitizer not clean on the closure backend:\n%v", res.Sanitizer)
			}
		})
	}
}
