package exec_test

import "repro/internal/suite"

// benchInput is a kernel at one size: what a workload of `go run ./bench`
// runs it at, or, for a kernel no workload runs, its table size.
type benchInput struct {
	// Workload names the bench workload, or "table".
	Workload string
	Kernel   suite.Kernel
	Params   map[string]int64
}

// benchSizes is a hand-kept copy of the suite programs of
// bench/workloads.go and their nominal parameters, workload by workload
// (the bench draws its inputs within 1% of these); nothing checks the two
// agree. compile_cold's programs outside the suites (heat1d, sweep, the
// generated stencil chains) are not here.
var benchSizes = []struct {
	workload, kernel string
	params           map[string]int64
}{
	{"sync_p2p", "jacobi1d", map[string]int64{"N": 64, "T": 3000}},
	{"sync_p2p", "redblack", map[string]int64{"N": 64, "T": 2000}},
	{"sync_p2p", "jacobi2d", map[string]int64{"N": 16, "T": 600}},
	{"sync_p2p", "shallow", map[string]int64{"N": 16, "T": 300}},
	{"sync_p2p", "tred2like", map[string]int64{"N": 256}},
	{"sync_p2p", "guardedpivot", map[string]int64{"N": 256}},
	{"sync_p2p", "pipeline", map[string]int64{"N": 64, "M": 3000}},
	{"sync_p2p", "erlebacher", map[string]int64{"N": 64, "M": 2000}},
	{"sync_barrier", "mg2level", map[string]int64{"N": 256, "M": 128, "T": 500}},
	{"sync_barrier", "adilike", map[string]int64{"N": 16, "T": 600}},
	{"sync_barrier", "tomcatvlike", map[string]int64{"N": 16, "T": 500}},
	{"sync_barrier", "dotchain", map[string]int64{"N": 4096}},
	{"compute_dense", "matmul", map[string]int64{"N": 96}},
	{"compute_dense", "jacobi2d", map[string]int64{"N": 192, "T": 4}},
	{"compute_dense", "stencil9", map[string]int64{"N": 160, "T": 4}},
	{"compute_dense", "dotchain", map[string]int64{"N": 262144}},
	{"irregular", "permcopy", map[string]int64{"N": 2048, "T": 200}},
	{"irregular", "gatherscatter", map[string]int64{"N": 2048, "T": 200}},
	{"irregular", "meshsmooth", map[string]int64{"N": 2048, "T": 200}},
	{"irregular", "edgerelax", map[string]int64{"N": 2048, "T": 200}},
	{"irregular", "spmvcsr", map[string]int64{"N": 1024, "T": 200}},
	{"compile_cold", "jacobi1d", map[string]int64{"N": 4096, "T": 8}},
	{"compile_cold", "jacobi2d", map[string]int64{"N": 64, "T": 4}},
	{"compile_cold", "pipeline", map[string]int64{"N": 256, "M": 64}},
	{"compile_cold", "erlebacher", map[string]int64{"N": 256, "M": 64}},
	{"compile_cold", "dotchain", map[string]int64{"N": 32768}},
	{"compile_cold", "tred2like", map[string]int64{"N": 128}},
	{"compile_cold", "guardedpivot", map[string]int64{"N": 96}},
	{"compile_cold", "adilike", map[string]int64{"N": 64, "T": 4}},
	{"compile_cold", "gatherscatter", map[string]int64{"N": 2048, "T": 8}},
	{"compile_cold", "meshsmooth", map[string]int64{"N": 2048, "T": 8}},
}

// benchInputs returns every suite program of the bench's workloads at its
// nominal size, in workload order, then the kernels of both suites that no
// workload runs, at their table sizes: all 21 kernels at least once.
func benchInputs() []benchInput {
	var out []benchInput
	seen := map[string]bool{}
	for _, b := range benchSizes {
		k, err := suite.Get(b.kernel)
		if err != nil {
			k, _ = suite.GetIrregular(b.kernel)
		}
		out = append(out, benchInput{Workload: b.workload, Kernel: k, Params: b.params})
		seen[k.Name] = true
	}
	for _, k := range append(suite.Kernels(), suite.IrregularKernels()...) {
		if !seen[k.Name] {
			out = append(out, benchInput{Workload: "table", Kernel: k, Params: k.Params})
		}
	}
	return out
}
