// Shallow-water kernel: a multi-field stencil program of the kind the
// paper's suite draws from (Bodin et al. report shallow as one of the two
// programs where barrier elimination shines; our optimizer eliminates
// every barrier of the time-step loop, using neighbor sync for the
// staggered-field boundary exchanges).
//
// This example also shows using the library API on a custom program with
// custom inputs rather than a registry kernel.
//
//	go run ./examples/shallow
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/suite"
)

func main() {
	k, err := suite.Get("shallow")
	if err != nil {
		log.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	st, bst := c.Schedule.Static(), c.Baseline.Static()
	fmt.Printf("shallow: %d parallel loops\n", len(c.Parallelized.Parallel))
	fmt.Printf("static sync sites: %d barriers -> %d barriers + %d neighbor syncs\n\n",
		bst.Barriers, st.Barriers, st.Neighbors)

	params := map[string]int64{"N": 128, "T": 12}
	ref, err := c.RunSequential(params)
	if err != nil {
		log.Fatal(err)
	}

	for _, p := range []int{2, 4, 8} {
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
			log.Fatalf("P=%d diverged by %g", p, d)
		}
		fmt.Printf("P=%d  base: %4d barriers  opt: %d barriers, %4d nbr waits\n",
			p, bres.Stats.Barriers, ores.Stats.Barriers, ores.Stats.NeighborWaits)
	}
	fmt.Println("elapsed time, base vs optimized with noise bars: go run ./cmd/benchtab -table 4")
}
