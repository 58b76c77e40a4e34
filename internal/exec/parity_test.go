package exec_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/suite"
)

// runEngine runs one kernel on one statement engine — the closure frame,
// or with ref the tree-walking reference of ref_test.go — under the
// optimized SPMD schedule or the fork-join baseline. Reductions fold in
// rank order, so both engines are numerically deterministic and comparable
// bit for bit.
func runEngine(t *testing.T, l leg, k suite.Kernel, ref bool, cfg exec.Config) *interp.State {
	t.Helper()
	cfg.Workers = 8
	cfg.Params = k.Params
	r, err := l.newRunner(cfg)
	if err != nil {
		t.Fatalf("%s %s ref=%v: runner: %v", k.Name, l.label, ref, err)
	}
	if ref {
		exec.UseReferenceEngine(r.Runner)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("%s %s ref=%v: run: %v", k.Name, l.label, ref, err)
	}
	if cfg.Sanitize && (res.Sanitizer == nil || !res.Sanitizer.Clean()) {
		t.Fatalf("%s %s ref=%v: sanitizer not clean:\n%v", k.Name, l.label, ref, res.Sanitizer)
	}
	return res.State
}

// requireBitwiseEqual compares every array element and scalar of the two
// final states by Float64bits: the closure engine must reproduce the
// reference exactly, not merely within tolerance.
func requireBitwiseEqual(t *testing.T, name string, a, b *interp.State) {
	t.Helper()
	for _, d := range a.Prog.Arrays {
		av, bv := a.Array(d.Name), b.Array(d.Name)
		if av == nil || bv == nil || len(av.Data) != len(bv.Data) {
			t.Fatalf("%s: array %s missing or shape mismatch across engines", name, d.Name)
		}
		for i := range av.Data {
			if math.Float64bits(av.Data[i]) != math.Float64bits(bv.Data[i]) {
				t.Fatalf("%s: array %s element %d differs across engines: %v (reference) vs %v (closure)",
					name, d.Name, i, av.Data[i], bv.Data[i])
			}
		}
	}
	for s, v := range a.Scalars {
		if math.Float64bits(v) != math.Float64bits(b.Scalars[s]) {
			t.Fatalf("%s: scalar %s differs across engines: %v (reference) vs %v (closure)",
				name, s, v, b.Scalars[s])
		}
	}
}

// TestBackendParity runs every suite kernel, affine and irregular, on both
// statement engines and requires bitwise-identical final states — the
// differential gate that keeps the tree-walking reference a valid oracle
// for the compiled closures. Both schedules are covered, plain and under
// the sanitizer with chaos timing (the instrumented lowering and the
// reference's access hooks must also both report clean).
func TestBackendParity(t *testing.T) {
	configs := []struct {
		name string
		cfg  exec.Config
	}{
		{"plain", exec.Config{}},
		{"sanitize+chaos", exec.Config{Sanitize: true, ChaosSeed: 42}},
	}
	for _, k := range append(suite.Kernels(), suite.IrregularKernels()...) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, l := range legs(c) {
				for _, tc := range configs {
					if tc.cfg.Sanitize && (testing.Short() || raceEnabled) {
						// The tracker under the race detector costs this
						// half 80 s for no extra signal: the comparison is
						// of values, and the sanitized closure runs are
						// raced by the suite's chaos sweep.
						continue
					}
					sr := runEngine(t, l, k, true, tc.cfg)
					sc := runEngine(t, l, k, false, tc.cfg)
					requireBitwiseEqual(t, k.Name+" "+l.label+" "+tc.name, sr, sc)
				}
			}
		})
	}
}
