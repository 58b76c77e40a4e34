// Jacobi relaxation: the paper's best case. All join barriers of the
// fork-join version become nearest-neighbor point-to-point synchronization
// (boundary exchange between adjacent blocks), so the dynamic barrier
// count drops to zero and the gap widens with the worker count.
//
//	go run ./examples/jacobi
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/suite"
)

func main() {
	k, err := suite.Get("jacobi2d")
	if err != nil {
		log.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("jacobi2d synchronization schedule:")
	fmt.Print(c.Schedule.Dump())
	fmt.Println()

	params := map[string]int64{"N": 256, "T": 20}
	ref, err := c.RunSequential(params)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%4s %14s %14s %16s\n", "P", "base.barriers", "opt.barriers", "opt.nbr.waits")
	for _, p := range []int{1, 2, 4, 8} {
		base, err := c.NewBaselineRunner(exec.Config{Workers: p, Params: params})
		if err != nil {
			log.Fatal(err)
		}
		bres, err := base.Run()
		if err != nil {
			log.Fatal(err)
		}
		opt, err := c.NewRunner(exec.Config{Workers: p, Params: params})
		if err != nil {
			log.Fatal(err)
		}
		ores, err := opt.Run()
		if err != nil {
			log.Fatal(err)
		}
		if d := exec.ComparableDiff(ref, ores.State, c.Prog); d > 0 {
			log.Fatalf("P=%d: optimized run diverged by %g", p, d)
		}
		fmt.Printf("%4d %14d %14d %16d\n",
			p, bres.Stats.Barriers, ores.Stats.Barriers, ores.Stats.NeighborWaits)
	}
	fmt.Println("elapsed time, base vs optimized with noise bars: go run ./cmd/benchtab -table 4")
}
