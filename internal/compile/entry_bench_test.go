package compile

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
)

// BenchmarkEntry times what one loop entry costs the driver of its entry plan
// (plan.rangeFn): short entries driven through Prog.Range as a partition
// would drive them, none of them a memo hit (the loop has no enclosing
// scope), so each runs the check, the legality question and the form.
//
//	go test -run '^$' -bench Entry -benchtime 1000000x ./internal/compile
func BenchmarkEntry(b *testing.B) {
	for _, tc := range []struct {
		name, src string
		n, width  int64
	}{
		// One row of 1 and of 16 iterations in row form.
		{"row/1", "real A(N), B(N)\ndo i = 1, N\n  A(i) = B(i) * 0.5 + 1.0\nend do", 1024, 1},
		{"row/16", "real A(N), B(N)\ndo i = 1, N\n  A(i) = B(i) * 0.5 + 1.0\nend do", 1024, 16},
		// Refused by legality: the scalar cursor form.
		{"scalar/16", "real A(N + 1), B(N)\ndo i = 1, N\n  A(i) = A(i + 1) * 0.5 + B(i)\nend do", 1024, 16},
		// The progression a parity guard admits.
		{"guard/16", "real A(N), B(N)\ndo i = 1, N\n  if mod(i, 2) == 1 then\n    A(i) = B(i) * 0.5 + 1.0\n  end if\nend do", 1024, 16},
		// A nest's block of 4 rows of 16, legality decided once.
		{"nest/4x16", "real A(N, N), B(N, N)\ndo i = 1, N\n  do j = 1, N\n    A(i, j) = B(i, j) * 0.5 + 1.0\n  end do\nend do", 16, 4},
	} {
		b.Run(tc.name, func(b *testing.B) {
			prog := mustParse("program e\nparam N\n" + tc.src + "\nend\n")
			p, err := Compile(prog, nil, Options{})
			if err != nil {
				b.Fatal(err)
			}
			st, err := interp.NewState(prog, map[string]int64{"N": tc.n})
			if err != nil {
				b.Fatal(err)
			}
			st.SeedDeterministic()
			fr, err := p.seqFrame(st)
			if err != nil {
				b.Fatal(err)
			}
			rng, slices := p.Range(prog.Body[0].(*ir.Loop)), tc.n/tc.width
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := int64(i)%slices*tc.width + 1
				rng(fr, s, s+tc.width-1, 1)
			}
			if fr.Err() != nil {
				b.Fatal(fr.Err())
			}
		})
	}
}
