// Wavefront pipelining (paper §3.3): the erlebacher kernel's inner loop is
// a serial in-place recurrence, so the fork-join baseline runs it entirely
// on the master. The optimizer instead partitions it as a wavefront relay:
// each worker executes its chunk after a point-to-point handoff from the
// worker below, and because the loop-bottom analysis finds no carried
// communication, workers overlap consecutive sweep steps in a staggered
// wave — no barriers anywhere.
//
//	go run ./examples/wavefront
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/costsim"
	"repro/internal/exec"
	"repro/internal/suite"
)

func main() {
	k, err := suite.Get("erlebacher")
	if err != nil {
		log.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("erlebacher schedule (the serial sweep becomes a wavefront):")
	fmt.Print(c.Schedule.Dump())

	params := map[string]int64{"N": 4096, "M": 48}
	ref, err := c.RunSequential(params)
	if err != nil {
		log.Fatal(err)
	}
	const workers = 8
	opt, err := c.NewRunner(exec.Config{Workers: workers, Params: params})
	if err != nil {
		log.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		log.Fatal(err)
	}
	if d := exec.ComparableDiff(ref, res.State, c.Prog); d > 0 {
		log.Fatalf("wavefront execution diverged by %g", d)
	}
	fmt.Printf("\nreal run, P=%d: %s (exact match with sequential)\n", workers, res.Stats)

	// The pipeline wave, as the cost simulator predicts it on a
	// multiprocessor with software-DSM synchronization costs.
	simRes, trace, err := costsim.SimulateTrace(c.Schedule, c.Plan, k.Params,
		workers, costsim.SoftwareDSM())
	if err != nil {
		log.Fatal(err)
	}
	baseRes, err := costsim.Simulate(c.Baseline, c.Plan, k.Params,
		workers, costsim.SoftwareDSM())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated (DSM costs): master-only baseline %.0f units, pipelined %.0f units (%.1fx)\n",
		baseRes.Makespan, simRes.Makespan, baseRes.Makespan/simRes.Makespan)
	costsim.RenderGantt(os.Stdout, simRes, trace, workers, 100)
}
