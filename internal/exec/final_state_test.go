package exec_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/suite"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFinalStateGolden pins the bits every suite kernel leaves behind, at
// chaos-test sizes, for P ∈ {1, 2, 3, 8} under the optimized SPMD schedule
// and the fork-join baseline: one FNV-64 per run over the float64 bits of
// every array element (declaration order) and every scalar (by name).
// Reduction results are part of the hash, so a change to how partials are
// folded shows here as a drifted line.
func TestFinalStateGolden(t *testing.T) {
	var out bytes.Buffer
	for _, k := range append(suite.Kernels(), suite.IrregularKernels()...) {
		params := clampParams(k.Params)
		c, err := core.Compile(k.Source, core.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", k.Name, err)
		}
		for _, l := range legs(c) {
			for _, workers := range []int{1, 2, 3, 8} {
				label := l.label
				r, err := l.newRunner(exec.Config{Workers: workers, Params: params, FixedWidth: true})
				if err != nil {
					t.Fatalf("%s %s P=%d: %v", k.Name, label, workers, err)
				}
				res, err := r.Run()
				if err != nil {
					t.Fatalf("%s %s P=%d: %v", k.Name, label, workers, err)
				}
				fmt.Fprintf(&out, "%s %s P=%d %016x\n", k.Name, label, workers, stateHash(res.State))
			}
		}
	}
	path := filepath.Join("testdata", "final_state.golden")
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
		t.Errorf("%s drifted (go test ./internal/exec -run %s -update)", path, t.Name())
	}
}

// stateHash is FNV-64a over the float64 bits of st's arrays, element by
// element in declaration order, then of its scalars sorted by name.
func stateHash(st *interp.State) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, d := range st.Prog.Arrays {
		for _, v := range st.Array(d.Name).Data {
			put(v)
		}
	}
	names := make([]string, 0, len(st.Scalars))
	for name := range st.Scalars {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		put(st.Scalars[name])
	}
	return h.Sum64()
}
