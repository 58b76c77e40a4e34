package suite

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fdo"
	"repro/internal/profile"
	"repro/internal/spmdrt"
)

// FDOBench is one row of Table F: per-kernel blocking sync wait of the
// static-only schedule against the profile-guided one, compared by Paired.
// A kernel counts as improved or regressed only when its save clears the
// noise bar.
type FDOBench struct {
	Kernel  string `json:"kernel"`
	Workers int    `json:"workers"`
	Runs    int    `json:"runs"`
	// Flips is how many sync sites the feedback pass flipped (certified
	// weakens plus promotes); PredictedSaveNS is its own cost-model claim.
	// BarrierAlgo, when set, is the barrier algorithm the feedback pass
	// recommends (see MeasureFDOBench for when the measured leg adopts it).
	Flips           int    `json:"flips"`
	PredictedSaveNS int64  `json:"predicted_save_ns"`
	BarrierAlgo     string `json:"barrier_algo,omitempty"`
	// Control marks a kernel where the two measured legs ran the identical
	// configuration (no flips and no adopted barrier algorithm): any
	// measured delta is pure noise, so the row calibrates the noise floor
	// and is excluded from the improved/regressed tallies.
	Control bool `json:"control,omitempty"`
	// StaticWaitNS / FDOWaitNS are the median blocking wait per run on each
	// leg; SaveNS is the median of the paired per-run deltas (static − fdo)
	// and NoiseNS their interquartile range. Verdict judges the
	// profile-guided leg at tolerance 0; Improved and Regressed are its
	// better and worse on non-control rows.
	StaticWaitNS int64   `json:"static_wait_ns_per_run"`
	FDOWaitNS    int64   `json:"fdo_wait_ns_per_run"`
	SaveNS       int64   `json:"save_ns"`
	NoiseNS      int64   `json:"noise_ns"`
	Verdict      Verdict `json:"verdict"`
	Improved     bool    `json:"improved"`
	Regressed    bool    `json:"regressed"`
}

// FDOBenchReport is the Table F artifact, the payload of BENCH_fdo.json.
type FDOBenchReport struct {
	Workers int `json:"workers"`
	Runs    int `json:"runs"`
	// ProfileRuns is how many traced runs fed the profile the feedback
	// pass re-optimized against (merged, same identity).
	ProfileRuns int        `json:"profile_runs"`
	Improved    int        `json:"improved"`
	Regressed   int        `json:"regressed"`
	Rows        []FDOBench `json:"rows"`
}

// MeasureFDOBench runs the whole feedback loop for each named kernel (all
// 21 suite kernels — regular and irregular — when names is empty): a
// profiling pass on the static schedule, one feedback re-optimization, and
// then runs static/profile-guided measurement pairs. Both legs trace, so
// the comparison is wait-vs-wait under identical instrumentation.
func MeasureFDOBench(names []string, workers, runs int) (*FDOBenchReport, error) {
	if workers <= 0 {
		workers = 8
	}
	if runs <= 0 {
		runs = 10
	}
	const profileRuns = 3
	if len(names) == 0 {
		for _, k := range Kernels() {
			names = append(names, k.Name)
		}
		for _, k := range IrregularKernels() {
			names = append(names, k.Name)
		}
	}
	rep := &FDOBenchReport{Workers: workers, Runs: runs, ProfileRuns: profileRuns}
	for _, name := range names {
		k, err := Get(name)
		if err != nil {
			if ik, ierr := GetIrregular(name); ierr == nil {
				k = ik
			} else {
				return nil, err
			}
		}
		c, err := core.Compile(k.Source, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", name, err)
		}

		// Profiling pass: a few traced runs on the static schedule, merged
		// into the profile the feedback pass consumes.
		pr, err := c.NewRunner(exec.Config{
			Workers: workers, Params: k.Params, Mode: exec.SPMD, Trace: true})
		if err != nil {
			return nil, fmt.Errorf("%s: profile runner: %w", name, err)
		}
		var profs []*profile.Profile
		for i := 0; i < profileRuns; i++ {
			res, err := pr.Run()
			if err != nil {
				return nil, fmt.Errorf("%s: profile run %d: %w", name, i+1, err)
			}
			profs = append(profs, pr.Profile(res))
		}
		prof, err := profile.Merge(profs...)
		if err != nil {
			return nil, fmt.Errorf("%s: merge: %w", name, err)
		}

		c2, fres, err := c.Reoptimize(prof, fdo.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: reoptimize: %w", name, err)
		}

		// The profile-guided leg adopts the recommended barrier algorithm
		// as spmdrun -barrier auto does, but — unlike it — only when the
		// host has the cores to run the workers in parallel: tree and
		// dissemination trade one central rendezvous for extra rounds,
		// which pays on real contention but only adds scheduler churn when
		// the workers are timeslicing a smaller machine.
		fdoBarrier := spmdrt.Central
		if workers <= runtime.NumCPU() {
			fdoBarrier, _ = spmdrt.ParseBarrierKind(fres.BarrierAlgo)
		}
		sr, err := c.NewRunner(exec.Config{
			Workers: workers, Params: k.Params, Mode: exec.SPMD, Trace: true})
		if err != nil {
			return nil, fmt.Errorf("%s: static runner: %w", name, err)
		}
		fr, err := c2.NewRunner(exec.Config{
			Workers: workers, Params: k.Params, Mode: exec.SPMD, Trace: true,
			Barrier: fdoBarrier})
		if err != nil {
			return nil, fmt.Errorf("%s: fdo runner: %w", name, err)
		}
		wait := func(r *core.Runner) Leg {
			return runLeg(r, func(res *core.Result) time.Duration { return r.Profile(res).TotalWait() })
		}
		cmp, err := Paired(runs, wait(sr), wait(fr))
		if err != nil {
			return nil, fmt.Errorf("%s: measurement: %w", name, err)
		}
		row := FDOBench{
			Kernel: name, Workers: workers, Runs: runs,
			Flips:           fres.Flips,
			PredictedSaveNS: fres.PredictedSaveNS,
			BarrierAlgo:     fres.BarrierAlgo,
			Control:         fres.Flips == 0 && fdoBarrier == spmdrt.Central,
			StaticWaitNS:    int64(cmp.MedianA),
			FDOWaitNS:       int64(cmp.MedianB),
			SaveNS:          int64(-cmp.Delta),
			NoiseNS:         int64(cmp.Noise),
			Verdict:         cmp.Verdict(0),
		}
		if !row.Control {
			row.Improved = row.Verdict == Better
			row.Regressed = row.Verdict == Worse
		}
		if row.Improved {
			rep.Improved++
		}
		if row.Regressed {
			rep.Regressed++
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// TableF prints the static-vs-profile-guided sync-wait comparison: flips
// applied, wait per run on each leg, the paired save with its noise bar,
// and the verdict. Kernels the feedback pass left untouched are controls:
// both legs run the identical schedule, so their deltas calibrate the
// noise floor rather than argue for either side.
func TableF(w io.Writer, rep *FDOBenchReport) {
	fmt.Fprintf(w, "Table F: profile-guided vs static sync wait (P=%d, %d pairs, profile of %d)\n",
		rep.Workers, rep.Runs, rep.ProfileRuns)
	fmt.Fprintf(w, "%-14s %5s %14s %14s %12s %12s  %s\n",
		"program", "flips", "static/run", "fdo/run", "save", "±noise", "verdict")
	for _, r := range rep.Rows {
		verdict := string(r.Verdict)
		if r.Control {
			verdict = "control"
		}
		if r.BarrierAlgo != "" {
			verdict += " (+" + r.BarrierAlgo + ")"
		}
		fmt.Fprintf(w, "%-14s %5d %14s %14s %12s %12s  %s\n",
			r.Kernel, r.Flips,
			time.Duration(r.StaticWaitNS).Round(time.Microsecond),
			time.Duration(r.FDOWaitNS).Round(time.Microsecond),
			time.Duration(r.SaveNS).Round(time.Microsecond),
			time.Duration(r.NoiseNS).Round(time.Microsecond),
			verdict)
	}
	fmt.Fprintf(w, "%d kernel(s) improved beyond noise, %d regressed\n", rep.Improved, rep.Regressed)
}
