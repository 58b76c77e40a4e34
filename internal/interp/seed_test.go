package interp_test

import (
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/suite"
)

// TestSeedKeepsItsBits seeds every suite kernel's state at its suite size and
// compares each array element, bit for bit, with the formula seeding used
// before it converted through int64 and scaled by 2^-53: an unsigned
// conversion and a division by 2^53. Every saved golden and pinned checksum
// starts from these values.
func TestSeedKeepsItsBits(t *testing.T) {
	for _, k := range append(suite.Kernels(), suite.IrregularKernels()...) {
		prog, err := parser.Parse(k.Source)
		if err != nil {
			t.Fatal(err)
		}
		st, err := interp.NewState(prog, k.Params)
		if err != nil {
			t.Fatal(err)
		}
		st.SeedDeterministic()
		for _, d := range prog.Arrays {
			h := interp.Fnv64(d.Name)
			for i, v := range st.Array(d.Name).Data {
				old := (float64(interp.Splitmix64(h+uint64(i))>>11) + 1) / float64(1<<53)
				if math.Float64bits(v) != math.Float64bits(old) {
					t.Fatalf("%s: array %s[%d] = %v, the old formula gives %v", k.Name, d.Name, i, v, old)
				}
			}
		}
	}
}
