package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/suite"
)

// program is one input of a workload: DSL source plus the nominal
// parameters the seed jitters. The system under test sees only source
// and the drawn parameters.
type program struct {
	name    string
	source  string
	nominal map[string]int64
	// tol is the output comparison tolerance against the sequential
	// reference (0 = bitwise; reductions need roundoff slack).
	tol float64
	// quick marks the two cheapest programs of a workload, the ones the
	// -quick smoke runs.
	quick bool
	// fixed names parameters the seed must leave alone.
	fixed map[string]bool
}

// split is how the per-layer pass divides its measured seconds among
// operation classes; the fields of one split sum to at most 1.
type split struct {
	run, tracedRun, request, replay, certify float64
}

// workload is one named set of inputs. why is the reason it exists; the
// same text is in BENCHMARK.json and bench/README.md.
type workload struct {
	name     string
	why      string
	programs func(seed int64) ([]program, error)
	// coldRequest says which operation the workload exists for, the one
	// the end-to-end pass times: a cold request, or else one optimized run.
	coldRequest bool
	// layer is the time split of the per-layer (traced) pass.
	layer split
}

var runLayer = split{run: 0.30, tracedRun: 0.15, request: 0.25, replay: 0.08, certify: 0.12}

// workloads lists the five workloads in report order. Sizes were chosen
// by timing the seed at P=2 so one optimized run takes 3–15 ms (about
// 1 ms on compile_cold) and every program of a workload collects 50–120
// run samples in the measured interval; bench/README.md gives the
// per-program reasons.
var workloads = []workload{
	{
		name: "sync_p2p",
		why:  "fine-grain kernels whose optimized schedule has no barrier left: neighbor flags, counters, wavefront relay dominate",
		programs: fromSuite(
			pick{"jacobi1d", sizes{"N": 64, "T": 3000}, false},
			pick{"redblack", sizes{"N": 64, "T": 2000}, false},
			pick{"jacobi2d", sizes{"N": 16, "T": 600}, false},
			pick{"shallow", sizes{"N": 16, "T": 300}, false},
			pick{"tred2like", sizes{"N": 256}, true},
			pick{"guardedpivot", sizes{"N": 256}, false},
			pick{"pipeline", sizes{"N": 64, "M": 3000}, false},
			pick{"erlebacher", sizes{"N": 64, "M": 2000}, true},
		),
		layer: runLayer,
	},
	{
		name: "sync_barrier",
		why:  "kernels in which the analysis must keep two barrier sites: the barrier algorithm and wait escalation dominate",
		programs: fromSuite(
			pick{"mg2level", sizes{"N": 256, "M": 128, "T": 500}, false},
			pick{"adilike", sizes{"N": 16, "T": 600}, true},
			pick{"tomcatvlike", sizes{"N": 16, "T": 500}, false},
			pick{"dotchain", sizes{"N": 4096}, true},
		),
		layer: runLayer,
	},
	{
		name: "compute_dense",
		why:  "at most 20 sync episodes per run: closures and the inner loop do the work; control on which a sync change must not move",
		programs: fromSuite(
			pick{"matmul", sizes{"N": 96}, true},
			pick{"jacobi2d", sizes{"N": 192, "T": 4}, false},
			pick{"stencil9", sizes{"N": 160, "T": 4}, false},
			pick{"dotchain", sizes{"N": 262144}, true},
		),
		layer: runLayer,
	},
	{
		name: "irregular",
		why:  "index-array kernels: runtime inspector scans and synthesized waits, the executor path affine kernels never enter",
		programs: fromSuite(
			pick{"permcopy", sizes{"N": 2048, "T": 200}, true},
			pick{"gatherscatter", sizes{"N": 2048, "T": 200}, true},
			pick{"meshsmooth", sizes{"N": 2048, "T": 200}, false},
			pick{"edgerelax", sizes{"N": 2048, "T": 200}, false},
			pick{"spmvcsr", sizes{"N": 1024, "T": 200}, false},
		),
		layer: runLayer,
	},
	{
		name:        "compile_cold",
		why:         "14 programs at sizes where a run is about 2% of a request: parser, lint, analysis passes and the certifier dominate",
		programs:    compileColdPrograms,
		coldRequest: true,
		layer:       split{run: 0.05, tracedRun: 0.05, request: 0.45, replay: 0.10, certify: 0.25},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

type sizes = map[string]int64

// pick names a suite kernel and its nominal parameters.
type pick struct {
	kernel string
	params sizes
	quick  bool
}

func fromSuite(picks ...pick) func(int64) ([]program, error) {
	return func(int64) ([]program, error) {
		var out []program
		for _, p := range picks {
			var fixed map[string]bool
			k, err := suite.Get(p.kernel)
			if err != nil {
				// An irregular kernel builds its index arrays from N, and
				// the conflicts between blocks change erratically with it
				// (spmvcsr allocates 0.58 MB per run at N=1012 and 0.91 MB
				// at N=1009): another N is another input, not a jitter.
				fixed = map[string]bool{"N": true}
				if k, err = suite.GetIrregular(p.kernel); err != nil {
					return nil, err
				}
			}
			out = append(out, program{name: k.Name, source: k.Source,
				nominal: p.params, tol: k.Tol, quick: p.quick, fixed: fixed})
		}
		return out, nil
	}
}

// coldKernels are compile_cold's suite kernels: one per synchronization
// shape the analysis produces (neighbor flags in one and two dimensions,
// pipeline, wavefront relay, reductions behind barriers, counter
// broadcasts, kept barriers, inspector sites), chosen among the cheaper
// ones to certify so that a round of requests takes under a second and
// every program collects a dozen request samples. Sizes make a run about
// a millisecond: a few percent of the request, yet long enough that
// opt_run_ms is not the wake-up latency of the team alone.
var coldKernels = []pick{
	{"jacobi1d", sizes{"N": 4096, "T": 8}, false},
	{"jacobi2d", sizes{"N": 64, "T": 4}, false},
	{"pipeline", sizes{"N": 256, "M": 64}, false},
	{"erlebacher", sizes{"N": 256, "M": 64}, false},
	{"dotchain", sizes{"N": 32768}, true},
	{"tred2like", sizes{"N": 128}, true},
	{"guardedpivot", sizes{"N": 96}, false},
	{"adilike", sizes{"N": 64, "T": 4}, false},
	{"gatherscatter", sizes{"N": 2048, "T": 8}, false},
	{"meshsmooth", sizes{"N": 2048, "T": 8}, false},
}

// coldFiles are the testdata programs of compile_cold and their sizes.
var coldFiles = []struct {
	name   string
	params sizes
}{
	{"heat1d", sizes{"N": 4096, "T": 8}},
	{"sweep", sizes{"N": 256, "M": 64}},
}

// compileColdPrograms is ten suite kernels, two testdata programs and two
// stencil chains generated from the seed.
func compileColdPrograms(seed int64) ([]program, error) {
	out, err := fromSuite(coldKernels...)(seed)
	if err != nil {
		return nil, err
	}
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	for _, f := range coldFiles {
		src, err := os.ReadFile(filepath.Join(root, "testdata", f.name+".dsl"))
		if err != nil {
			return nil, err
		}
		out = append(out, program{name: f.name, source: string(src), nominal: f.params, tol: 1e-9})
	}
	rng := rand.New(rand.NewSource(seed))
	for i, shape := range stencilShapes {
		name := fmt.Sprintf("chain%d", i+1)
		out = append(out, program{name: name, source: stencilChain(rng, name, shape.loops, shape.arrays),
			nominal: sizes{"N": 4096, "T": 8}})
	}
	return out, nil
}

// stencilShapes fixes each generated program's loop and array count, so
// that the seed changes which arrays and offsets a chain uses but not how
// much there is to analyze: compile_cold's cost must not depend on the
// seed more than its bound allows.
var stencilShapes = []struct{ loops, arrays int }{{2, 2}, {3, 2}}

// stencilChain generates a chain of parallel 1-D stencil loops inside one
// time loop. Loop j writes array j mod arrays and reads two other-array
// terms at offsets in {-1,0,1}; a loop never reads the array it writes
// at a nonzero offset, so every loop stays parallel.
func stencilChain(rng *rand.Rand, name string, loops, arrays int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s\nparam N, T\nreal ", name)
	for a := 0; a < arrays; a++ {
		if a > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "A%d(N)", a)
	}
	sb.WriteString("\ndo k = 1, T\n")
	ref := func(a int) string {
		switch rng.Intn(3) - 1 {
		case -1:
			return fmt.Sprintf("A%d(i - 1)", a)
		case 1:
			return fmt.Sprintf("A%d(i + 1)", a)
		}
		return fmt.Sprintf("A%d(i)", a)
	}
	for j := 0; j < loops; j++ {
		w := j % arrays
		r1 := (w + 1 + rng.Intn(arrays-1)) % arrays
		r2 := (w + 1 + rng.Intn(arrays-1)) % arrays
		fmt.Fprintf(&sb, "  do i = 2, N - 1\n    A%d(i) = 0.5 * A%d(i) + 0.25 * (%s + %s)\n  end do\n",
			w, w, ref(r1), ref(r2))
	}
	sb.WriteString("end do\nend\n")
	return sb.String()
}

// drawParams jitters every nominal parameter of 100 or more by a seeded
// amount of at most ±1%: enough that block boundaries, trip counts and
// alignment differ between seeds, small enough that the seed moves a
// workload's run time by well under a third of its bound (a ±12.5% draw
// alone moved the geomean run time by about 5%). Smaller values stay
// fixed: one unit of N=24 is 8% of a quadratic kernel. mg2level's fine
// grid is twice its coarse grid, so N follows M.
func drawParams(rng *rand.Rand, p program) map[string]int64 {
	names := make([]string, 0, len(p.nominal))
	for n := range p.nominal {
		names = append(names, n)
	}
	sort.Strings(names)
	out := map[string]int64{}
	for _, n := range names {
		v := p.nominal[n]
		j := v / 100
		if p.fixed[n] {
			j = 0
		}
		out[n] = v - j + rng.Int63n(2*j+1)
	}
	if p.name == "mg2level" {
		out["N"] = 2 * out["M"]
	}
	return out
}

// repoRoot walks up from the working directory to the directory holding
// BENCHMARK.json (`go run ./bench` starts at the root, `go test` in
// bench/).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}
