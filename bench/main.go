// Command bench is the repository's one benchmark: five workloads, the
// end-to-end metrics a user of the compiler and runtime would see, and a
// per-layer ledger measured from outside the layers. BENCHMARK.json at
// the repository root declares every metric; README.md in this directory
// says why each workload and metric exists and how to read the output.
//
//	go run ./bench                                  every workload, both passes
//	go run ./bench -workload sync_p2p -seed 2 -out r.json
//	go run ./bench --workload sync_p2p --seed 2 --seconds 20 --trace 0
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run (default: all five)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 0, "measured seconds per pass (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", -1, "0: end-to-end pass only, 1: per-layer pass only (default: both)")
		outFile = flag.String("out", "", "write the JSON result file here")
		quick   = flag.Bool("quick", false, "smoke: one round on the two cheapest programs of each workload")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	selected := workloads
	if *name != "" {
		wl, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		selected = []workload{*wl}
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	host := hostInfo{P: workerCount(), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit()}
	fmt.Printf("# bench P=%d nproc=%d go=%s commit=%s seed=%d seconds=%g\n",
		host.P, host.NumCPU, host.GoVersion, host.Commit, *seed, *seconds)
	file := resultFile{Host: host}
	status := 0
	var lastPass *passResult
	passes := 0
	for i := range selected {
		wl := &selected[i]
		joined := workloadResult{Workload: wl.name, Seed: *seed, Seconds: *seconds,
			Correct: true, Metrics: map[string]metricValue{}, Hosts: map[string]hostSample{}}
		set := newMetricSet(spec)
		for _, traced := range []bool{false, true} {
			if (*trace == 0 && traced) || (*trace == 1 && !traced) {
				continue
			}
			res, err := runPass(spec, wl, passOptions{seed: *seed, seconds: *seconds, traced: traced,
				quick: *quick, traceDir: filepath.Join(root, "bench", "out")})
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
				return 1
			}
			declared, pass := spec.EndToEnd, "end_to_end"
			if traced {
				declared, pass = spec.PerLayer, "per_layer"
			}
			joined.Hosts[pass] = *res.Host
			for _, m := range missing(res.Metrics, declared) {
				res.Failures = append(res.Failures, fmt.Sprintf("metric %q is declared but was not measured", m))
				res.Correct = false
			}
			for n, v := range res.Metrics {
				set.Values[n] = v
			}
			joined.Correct = joined.Correct && res.Correct
			joined.Attempted += res.Attempted
			joined.Failed += res.Failed
			joined.Failures = append(joined.Failures, res.Failures...)
			joined.Rows = mergeRows(joined.Rows, res.Rows)
			lastPass = res
			passes++
		}
		joined.Metrics = set.Values
		fmt.Printf("# workload %s attempted=%d failed=%d\n", wl.name, joined.Attempted, joined.Failed)
		set.print(os.Stdout)
		for _, f := range joined.Failures {
			fmt.Fprintln(os.Stderr, "bench: FAIL:", f)
		}
		if !joined.Correct {
			status = 1
		}
		file.Workloads = append(file.Workloads, joined)
	}
	if *outFile != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*outFile, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// One workload and one pass: the last line is the driver's contract.
	if passes == 1 {
		line, err := json.Marshal(passResult{Correct: lastPass.Correct, Attempted: lastPass.Attempted,
			Failed: lastPass.Failed, Metrics: lastPass.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return status
}

// mergeRows joins the rows of the two passes program by program.
func mergeRows(have, add []row) []row {
	if len(have) == 0 {
		return add
	}
	for i := range add {
		for j := range have {
			if have[j].Program != add[i].Program {
				continue
			}
			for name, d := range add[i].Times {
				if _, ok := have[j].Times[name]; !ok {
					have[j].Times[name] = d
				}
			}
		}
	}
	return have
}

// commit is the VCS revision the binary was built from, when the build
// saw one (the driver's checkout is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}
