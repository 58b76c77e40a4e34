package compile_test

import (
	"math"
	"testing"

	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/suite"
)

// rowKernels pins, per suite kernel, whether a sequential run at the suite's
// size takes row entries. An optimisation that silently stops firing keeps
// every differential green; this list is what fails.
var rowKernels = map[string]bool{
	"jacobi1d": true, "jacobi2d": true, "stencil9": true, "shallow": true, "tred2like": true,
	"lulike": true, "pipeline": true, "matmul": true, "dotchain": true, "mg2level": true,
	"life": true, "tomcatvlike": true, "guardedpivot": true, "adilike": true,
	// Their initialisation and smoothing loops; the gathers stay scalar.
	"spmvcsr": true, "meshsmooth": true, "edgerelax": true,
	// Parity guards; a true carried dependence; and loops that use the index
	// as a value or carry a recurrence beside their gathers.
	"redblack": false, "erlebacher": false, "permcopy": false, "gatherscatter": false,
}

// TestKernelsTakeRowForm runs every suite kernel, affine and irregular,
// sequentially on the closure program: the state must be the interpreter's
// bit for bit, no entry may fall back, and row entries must occur exactly in
// the kernels pinned above.
func TestKernelsTakeRowForm(t *testing.T) {
	kernels := append(suite.Kernels(), suite.IrregularKernels()...)
	if len(kernels) != len(rowKernels) {
		t.Fatalf("%d suite kernels, %d pinned", len(kernels), len(rowKernels))
	}
	for _, k := range kernels {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			prog := k.Program()
			want, err := interp.Run(prog, k.Params)
			if err != nil {
				t.Fatal(err)
			}
			p, err := compile.Compile(prog, nil, compile.Options{})
			if err != nil {
				t.Fatal(err)
			}
			st, err := interp.NewState(prog, k.Params)
			if err != nil {
				t.Fatal(err)
			}
			st.SeedDeterministic()
			fr, err := p.RunSeqFrame(st)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range prog.Arrays {
				for i, v := range want.Array(d.Name).Data {
					if got := st.Array(d.Name).Data[i]; math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("array %s[%d]: interpreter %v, closure program %v", d.Name, i, v, got)
					}
				}
			}
			for name, v := range want.Scalars {
				if got := st.Scalars[name]; math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("scalar %s: interpreter %v, closure program %v", name, v, got)
				}
			}
			pinned, known := rowKernels[k.Name]
			if !known || (fr.Rows > 0) != pinned || fr.Fallbacks != 0 {
				t.Fatalf("%d row entries, %d fallbacks; pinned: row form %v (known %v)", fr.Rows, fr.Fallbacks, pinned, known)
			}
			t.Logf("%d row entries", fr.Rows)
		})
	}
}
