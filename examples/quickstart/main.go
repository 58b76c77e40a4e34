// Quickstart: compile a small program, inspect the synchronization
// schedule the optimizer produced, and run it both ways.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
)

const src = `
program quickstart
param N, T
real A(N), B(N)
do k = 1, T
  do i = 2, N - 1
    B(i) = 0.5 * (A(i - 1) + A(i + 1))
  end do
  do i = 2, N - 1
    A(i) = B(i)
  end do
end do
end
`

func main() {
	// Compile: dependence analysis, parallelization, computation
	// partitioning, communication analysis, barrier elimination.
	c, err := core.Compile(src, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel loops found: %d\n", len(c.Parallelized.Parallel))
	fmt.Println("optimized schedule:")
	fmt.Print(c.Schedule.Dump())

	params := map[string]int64{"N": 1 << 14, "T": 20}

	// Runs are context-aware: cancellation or a deadline tears the worker
	// team down cleanly through the runtime's failure latch.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Baseline: fork-join with a join barrier after every parallel loop.
	// Statements execute as closures compiled over a flat register frame.
	base, err := c.NewBaselineRunner(exec.Config{Workers: 8, Params: params})
	if err != nil {
		log.Fatal(err)
	}
	bres, err := base.RunContext(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// Optimized: SPMD execution under the eliminated/weakened schedule.
	opt, err := c.NewRunner(exec.Config{Workers: 8, Params: params})
	if err != nil {
		log.Fatal(err)
	}
	ores, err := opt.RunContext(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nbaseline:  %s\n", bres.Stats)
	fmt.Printf("optimized: %s\n", ores.Stats)

	// Every result carries the independent certifier's verdict of the
	// schedule that ran — no separate certify step needed.
	fmt.Printf("schedule certified: %v\n", ores.Certify.Certified)

	// The two executions compute the same thing; prove it.
	ref, err := c.RunSequential(params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmax |optimized - sequential| = %g\n",
		exec.ComparableDiff(ref, ores.State, c.Prog))
	fmt.Println("elapsed time, base vs optimized with noise bars: go run ./cmd/benchtab -table 4")
}
