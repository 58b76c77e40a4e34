// Pipelining: an erlebacher/tred2-style sweep whose outer sequential loop
// carries a nearest-neighbor dependence. The fork-join version pays one
// barrier per sweep step; the optimizer replaces the loop-bottom barrier
// with point-to-point synchronization, so processors proceed through the
// sweep in a staggered pipeline ("other processors do not have to wait for
// the producer processor to complete all of its work for the current
// iteration", paper §3.3).
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/suite"
)

func main() {
	k, err := suite.Get("pipeline")
	if err != nil {
		log.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pipeline kernel schedule (note the loop-bottom neighbor sync):")
	fmt.Print(c.Schedule.Dump())
	fmt.Println()

	// Modest per-step work keeps synchronization on the critical path —
	// the regime the paper targets ("the interval between barriers
	// decreases as computation is partitioned across more processors").
	params := map[string]int64{"N": 4096, "M": 128}
	ref, err := c.RunSequential(params)
	if err != nil {
		log.Fatal(err)
	}

	const workers = 8
	base, err := c.NewBaselineRunner(exec.Config{Workers: workers, Params: params})
	if err != nil {
		log.Fatal(err)
	}
	bres, err := base.Run()
	if err != nil {
		log.Fatal(err)
	}
	opt, err := c.NewRunner(exec.Config{Workers: workers, Params: params})
	if err != nil {
		log.Fatal(err)
	}
	ores, err := opt.Run()
	if err != nil {
		log.Fatal(err)
	}
	if d := exec.ComparableDiff(ref, ores.State, c.Prog); d > 0 {
		log.Fatalf("optimized run diverged by %g", d)
	}

	fmt.Printf("fork-join: %d barriers over %d sweep steps\n",
		bres.Stats.Barriers, params["M"]-1)
	fmt.Printf("pipelined: %d barriers, %d neighbor waits\n",
		ores.Stats.Barriers, ores.Stats.NeighborWaits)
	fmt.Printf("dynamic barrier reduction: %d -> %d\n",
		bres.Stats.Barriers, ores.Stats.Barriers)
	fmt.Println("elapsed time, base vs optimized with noise bars: go run ./cmd/benchtab -table 4")
}
