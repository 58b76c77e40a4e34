package compile_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/suite"
)

// rowEntries pins, per suite kernel, how many row entries a sequential run at
// the suite's size takes. An optimisation that silently stops firing keeps
// every differential green; this list is what fails — by count, so that one
// loop leaving the form fails even where the kernel's other loops keep it.
var rowEntries = map[string]int64{
	"jacobi1d": 20, "jacobi2d": 2520, "stencil9": 2520, "shallow": 4512, "tred2like": 191,
	"lulike": 4655, "pipeline": 63, "matmul": 9216, "dotchain": 5, "mg2level": 12,
	"life": 1008, "tomcatvlike": 1692, "adilike": 1152,
	// Index guards in the body (guard.go): each entry runs the progression its
	// guard admits. redblack's parity guards take every other element of a
	// row; guardedpivot's i == k takes one, so each k adds a one-iteration
	// row entry to the 191 of its update loop.
	"redblack": 20, "guardedpivot": 382,
	// A true carried dependence.
	"erlebacher": 0,
	// Two gather or scatter loops per time step (T = 8) plus the fills that do
	// not use the index as a value. spmvcsr's gathers run in entries of two
	// nonzeros, below the gathers' break-even, and stay scalar: its 10 are the
	// fills and the x update.
	"permcopy": 16, "gatherscatter": 16, "spmvcsr": 10, "meshsmooth": 17, "edgerelax": 17,
}

// TestKernelsTakeRowForm runs every suite kernel, affine and irregular,
// sequentially on the closure program: the state must be the interpreter's
// bit for bit, no entry may fall back, and each kernel must take the row
// entries pinned above.
func TestKernelsTakeRowForm(t *testing.T) {
	kernels := append(suite.Kernels(), suite.IrregularKernels()...)
	if len(kernels) != len(rowEntries) {
		t.Fatalf("%d suite kernels, %d pinned", len(kernels), len(rowEntries))
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
			pinned, known := rowEntries[k.Name]
			if !known || fr.Rows != pinned || fr.Fallbacks != 0 {
				t.Fatalf("%d row entries, %d fallbacks; pinned: %d row entries (known %v)", fr.Rows, fr.Fallbacks, pinned, known)
			}
			t.Logf("%d row entries", fr.Rows)
		})
	}
}

// TestCSRRowsTakeTheNestDriver pins that spmvcsr's gather loop, k from rp(i)
// to rp(i + 1) - 1 under the row loop i, runs through the nest driver, which
// checks the loop's four cursors once per block of rows — y(i) read, v(k),
// cl(k) under the gather x(cl(k)), y(i) stored — and steps them per row by
// the deltas it leaves in the frame's scratch: one element for y, none for
// v and cl, whose rows start where rp says. The per-entry driver leaves none.
func TestCSRRowsTakeTheNestDriver(t *testing.T) {
	k, err := suite.GetIrregular("spmvcsr")
	if err != nil {
		t.Fatal(err)
	}
	prog := k.Program()
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
	if got := fr.NestDeltas(); len(got) < 4 || !slices.Equal(got[:4], []int64{1, 0, 0, 1}) || fr.Fallbacks != 0 {
		t.Fatalf("nest deltas %v, %d fallbacks; want [1 0 0 1] first, none", got, fr.Fallbacks)
	}
}
