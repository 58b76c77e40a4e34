package suite

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/pool"
	"repro/internal/spmdrt"
)

// PoolBenchRow is one row of Table P: team-provisioning latency at one
// worker count. Each measured cycle runs a body of exactly one Barrier —
// the first rendezvous every real SPMD run opens with — so the cost a
// team pays to *reach its first synchronized state* is on the clock.
// Cold cycles spawn a fresh team (NewTeam + run + join); pooled cycles
// go through the full pool protocol (checkout + run + release, where the
// release includes the reset-and-audit path, so the pooled number is the
// honest steady-state per-run cost). The two are compared by Paired.
//
// Both sides also pay for the rendezvous itself. BaselineNS is that
// rendezvous' steady-state cost, measured as the marginal per-barrier
// cost on an already-running team; subtracting it from each total leaves
// the provisioning overhead the team machinery adds around the
// synchronization. A cold team's overhead includes the first-rendezvous
// stagger penalty — freshly spawned workers arrive so spread out that
// early arrivals fall through the barrier's spin window into the
// yield/sleep escalation — which is attributable to the spawn, not to
// the barrier: a pooled team's workers are woken together from the park
// rendezvous and co-arrive.
type PoolBenchRow struct {
	Workers int `json:"workers"`
	// ColdNS is the median of spawn + one-barrier run + join on a fresh
	// team.
	ColdNS int64 `json:"cold_ns"`
	// PooledNS is the median of checkout + one-barrier run + release on a
	// warm pool.
	PooledNS int64 `json:"pooled_ns"`
	// BaselineNS is the steady-state cost of one barrier episode on an
	// already-running team: an eighth of the median paired delta between a
	// 9-barrier and a 1-barrier body on a held lease.
	BaselineNS int64 `json:"baseline_ns"`
	// ColdOverheadNS / PooledOverheadNS are the respective totals minus
	// BaselineNS: the team tax around the rendezvous. Pooled co-arrival can
	// beat the steady-state barrier, so the pooled one may be negative.
	ColdOverheadNS   int64 `json:"cold_overhead_ns"`
	PooledOverheadNS int64 `json:"pooled_overhead_ns"`
	// SaveNS is the median paired cold − pooled delta, NoiseNS the
	// interquartile range of the deltas, and Verdict judges pooled against
	// cold at tolerance 0: better means reuse wins beyond the noise bar.
	SaveNS  int64   `json:"save_ns"`
	NoiseNS int64   `json:"noise_ns"`
	Verdict Verdict `json:"verdict"`
}

// PoolBenchChaos summarizes the retry/fallback leg: repeated kernel runs
// on one pool with the chaos long-stall fault armed against a short
// watchdog, under a retry policy with sequential fallback.
type PoolBenchChaos struct {
	Kernel string `json:"kernel"`
	// Runs all succeeded (the policy recovered every stall); Retries is
	// the total extra attempts spent, Fallbacks how many runs degraded to
	// the sequential path.
	Runs      int `json:"runs"`
	Retries   int `json:"retries"`
	Fallbacks int `json:"fallbacks"`
	// ChecksumsOK reports every recovered run matched the sequential
	// reference checksum.
	ChecksumsOK bool `json:"checksums_ok"`
	// Pool is the gauge snapshot after the leg: quarantines == rebuilt
	// means every poisoned team was replaced.
	Pool pool.Stats `json:"pool"`
}

// PoolBenchReport is the Table P artifact, the payload of BENCH_pool.json.
type PoolBenchReport struct {
	Barrier string         `json:"barrier"`
	Samples int            `json:"samples"`
	Rows    []PoolBenchRow `json:"rows"`
	// ChaosSeed/Chaos are present only when the chaos leg ran.
	ChaosSeed int64           `json:"chaos_seed,omitempty"`
	Chaos     *PoolBenchChaos `json:"chaos,omitempty"`
}

// MeasurePoolBench measures pooled-vs-cold team-provisioning latency for
// each worker count (default {2, 4, 8, 16}) over samples cold/pooled pairs
// (default 300). Every cycle's body is one Barrier (the run's first
// rendezvous); the steady-state cost of that rendezvous is measured
// separately (see PoolBenchRow). With a nonzero chaosSeed it also runs the
// retry/fallback leg (see PoolBenchChaos).
func MeasurePoolBench(workerCounts []int, samples int, chaosSeed int64) (*PoolBenchReport, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{2, 4, 8, 16}
	}
	if samples <= 0 {
		samples = 300
	}
	const kind = spmdrt.Central
	rep := &PoolBenchReport{Barrier: kind.String(), Samples: samples}
	tp := pool.New(pool.Options{})
	defer tp.Close()
	// Cold cycles churn garbage (a dead team per sample); collection of it
	// would otherwise fire inside arbitrary later windows and smear cold's
	// cost across both sides. Collect once, then hold the collector off
	// for the latency loops so every window is attributable. Allocation
	// cost itself still lands where it is incurred. The collector is
	// restored before the chaos leg, which runs real kernels.
	err := func() error {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		for _, p := range workerCounts {
			row, err := measurePoolRow(tp, p, kind, samples)
			if err != nil {
				return err
			}
			rep.Rows = append(rep.Rows, row)
		}
		return nil
	}()
	if err != nil {
		return nil, err
	}
	if chaosSeed != 0 {
		chaos, err := measurePoolChaos(chaosSeed)
		if err != nil {
			return nil, err
		}
		rep.ChaosSeed = chaosSeed
		rep.Chaos = chaos
	}
	return rep, nil
}

// measurePoolRow is one worker count's row of Table P.
func measurePoolRow(tp *pool.Pool, p int, kind spmdrt.BarrierKind, samples int) (PoolBenchRow, error) {
	if p < 1 {
		return PoolBenchRow{}, fmt.Errorf("poolbench: bad worker count %d", p)
	}
	// Measured first: its held lease is also the pool's cold build.
	baseline, err := measureBarrierBaseline(tp, p, kind, samples)
	if err != nil {
		return PoolBenchRow{}, err
	}
	cold := func() (time.Duration, error) {
		t0 := time.Now()
		team := spmdrt.NewTeam(p, kind)
		if err := team.Run(func(w int) { team.Barrier(w) }); err != nil {
			return 0, fmt.Errorf("poolbench: cold run P=%d: %w", p, err)
		}
		d := time.Since(t0)
		// The cold team's worker goroutines are still exiting when Run
		// returns (the join fires on the last Done, not the last exit).
		// Let the scheduler drain them so cold teardown is not billed
		// to the leg that follows.
		settle(p)
		return d, nil
	}
	pooled := func() (time.Duration, error) {
		t0 := time.Now()
		l, err := tp.Checkout(p, kind)
		if err != nil {
			return 0, err
		}
		tm := l.Team().Team()
		if err := l.Team().Run(func(w int) { tm.Barrier(w) }); err != nil {
			return 0, fmt.Errorf("poolbench: pooled run P=%d: %w", p, err)
		}
		l.Release(nil)
		d := time.Since(t0)
		settle(p)
		return d, nil
	}
	cmp, err := Paired(samples, cold, pooled)
	return PoolBenchRow{
		Workers:          p,
		ColdNS:           int64(cmp.MedianA),
		PooledNS:         int64(cmp.MedianB),
		BaselineNS:       int64(baseline),
		ColdOverheadNS:   int64(cmp.MedianA - baseline),
		PooledOverheadNS: int64(cmp.MedianB - baseline),
		SaveNS:           int64(-cmp.Delta),
		NoiseNS:          int64(cmp.Noise),
		Verdict:          cmp.Verdict(0),
	}, err
}

// measureBarrierBaseline returns the steady-state cost of one barrier
// episode on an already-running team: the marginal cost per extra barrier
// when the run body widens from 1 to 9 barriers, on a single lease held
// for the whole measurement so team provisioning never enters the clock.
func measureBarrierBaseline(tp *pool.Pool, p int, kind spmdrt.BarrierKind, samples int) (time.Duration, error) {
	l, err := tp.Checkout(p, kind)
	if err != nil {
		return 0, err
	}
	defer l.Release(nil)
	tm := l.Team().Team()
	body := func(nb int) Leg {
		return func() (time.Duration, error) {
			t0 := time.Now()
			err := l.Team().Run(func(w int) {
				for j := 0; j < nb; j++ {
					tm.Barrier(w)
				}
			})
			if err != nil {
				return 0, fmt.Errorf("poolbench: baseline run P=%d nb=%d: %w", p, nb, err)
			}
			return time.Since(t0), nil
		}
	}
	cmp, err := Paired(samples, body(1), body(9))
	return cmp.Delta / 8, err
}

// settle yields until goroutines left runnable by the previous sample
// (worker exits, deferred cleanup) have drained, so consecutive samples
// cannot bill work to each other. A bounded Gosched loop is enough: the
// leftovers are short straight-line epilogues, not blocking work.
func settle(p int) {
	for i := 0; i < 2*p+8; i++ {
		runtime.Gosched()
	}
}

// measurePoolChaos drives repeated runs of a small kernel on one dedicated
// pool with the long-stall fault armed against a short watchdog, under a
// retry policy with sequential fallback: every run must end in a correct
// result, by retry or by degradation.
func measurePoolChaos(seed int64) (*PoolBenchChaos, error) {
	const (
		kernel = "jacobi1d"
		runs   = 30
	)
	k, err := Get(kernel)
	if err != nil {
		return nil, err
	}
	// Chaos sleeps around every sync, so the input must stay small.
	params := map[string]int64{"N": 64, "T": 4}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		return nil, err
	}
	ref, err := c.RunSequential(params)
	if err != nil {
		return nil, err
	}
	tp := pool.New(pool.Options{})
	defer tp.Close()
	out := &PoolBenchChaos{Kernel: kernel, ChecksumsOK: true}
	for i := 0; i < runs; i++ {
		r, err := c.NewRunner(exec.Config{
			Workers:         4,
			Params:          params,
			Mode:            exec.SPMD,
			Pool:            tp,
			ChaosSeed:       seed + int64(i),
			ChaosStall:      200 * time.Millisecond,
			WatchdogTimeout: 40 * time.Millisecond,
			Policy: &exec.RunPolicy{
				MaxRetries:         2,
				Backoff:            2 * time.Millisecond,
				SequentialFallback: true,
			},
		})
		if err != nil {
			return nil, err
		}
		res, err := r.Run()
		if err != nil {
			return nil, fmt.Errorf("poolbench: chaos run %d not recovered: %w", i, err)
		}
		out.Runs++
		out.Retries += res.Attempts - 1
		if res.SeqFallback {
			out.Fallbacks++
		}
		if exec.ComparableDiff(ref, res.State, c.Prog) > 1e-12 {
			out.ChecksumsOK = false
		}
	}
	tp.Quiesce()
	out.Pool = tp.Snapshot()
	return out, nil
}

// TableP prints pooled-vs-cold team-provisioning latency per worker
// count, plus the chaos retry/fallback summary when that leg ran. The
// cold/pooled columns are full one-rendezvous cycle totals, the overhead
// columns subtract the steady-state rendezvous baseline, and save ± noise
// is the paired comparison of the totals (see PoolBenchRow).
func TableP(w io.Writer, rep *PoolBenchReport) {
	fmt.Fprintf(w, "Table P: team provisioning, cold spawn vs pooled reuse (%s barrier, %d pairs, one-rendezvous body)\n",
		rep.Barrier, rep.Samples)
	fmt.Fprintf(w, "%-4s %12s %12s %12s %12s %12s %12s %12s  %s\n",
		"P", "cold", "pooled", "rendezvous", "cold-oh", "pooled-oh", "save", "±noise", "verdict")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-4d", r.Workers)
		for _, ns := range []int64{r.ColdNS, r.PooledNS, r.BaselineNS,
			r.ColdOverheadNS, r.PooledOverheadNS, r.SaveNS, r.NoiseNS} {
			fmt.Fprintf(w, " %12s", time.Duration(ns).Round(100*time.Nanosecond))
		}
		fmt.Fprintf(w, "  %s\n", r.Verdict)
	}
	if ch := rep.Chaos; ch != nil {
		fmt.Fprintf(w, "chaos leg (%s, stall-injected, seed %d): %d/%d runs recovered — %d retries, %d sequential fallbacks, checksums ok: %v\n",
			ch.Kernel, rep.ChaosSeed, ch.Runs, ch.Runs, ch.Retries, ch.Fallbacks, ch.ChecksumsOK)
		fmt.Fprintf(w, "pool: %d checkouts, %d reuses, %d quarantined, %d rebuilt\n",
			ch.Pool.Checkouts, ch.Pool.Reuses, ch.Pool.Quarantines, ch.Pool.Rebuilt)
	}
}
