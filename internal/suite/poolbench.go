package suite

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/envelope"
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
// honest steady-state per-run cost).
//
// The totals alone understate the difference in team tax, because both
// sides also pay for the rendezvous itself. BaselineNS is that
// rendezvous' steady-state cost, measured as the marginal per-barrier
// cost on an already-running team; subtracting it from each total leaves
// the provisioning overhead the team machinery adds around the
// synchronization. A cold team's overhead includes the first-rendezvous
// stagger penalty — freshly spawned workers arrive so spread out that
// early arrivals fall through the barrier's spin window into the
// yield/sleep escalation — which is attributable to the spawn, not to
// the barrier: a pooled team's workers are woken together from the park
// rendezvous and co-arrive. Speedup therefore compares overheads.
type PoolBenchRow struct {
	Workers int `json:"workers"`
	// ColdNS is the median of spawn + one-barrier run + join on a fresh
	// team.
	ColdNS int64 `json:"cold_ns"`
	// PooledNS is the median of checkout + one-barrier run + release on a
	// warm pool.
	PooledNS int64 `json:"pooled_ns"`
	// BaselineNS is the steady-state cost of one barrier episode on an
	// already-running team (marginal cost, measured by widening the body
	// from 1 to 9 barriers on a held lease).
	BaselineNS int64 `json:"baseline_ns"`
	// ColdOverheadNS / PooledOverheadNS are the respective totals minus
	// BaselineNS (clamped at 1ns): the team tax around the rendezvous.
	ColdOverheadNS   int64 `json:"cold_overhead_ns"`
	PooledOverheadNS int64 `json:"pooled_overhead_ns"`
	// Speedup is ColdOverheadNS / PooledOverheadNS.
	Speedup float64 `json:"speedup"`
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
// each worker count (default {2, 4, 8, 16}), the median of samples cycles
// (default 300), interleaved cold/pooled so ambient-load drift cannot
// bias one side. Every cycle's body is one Barrier (the run's first
// rendezvous); the steady-state cost of that rendezvous is measured
// separately and subtracted (see PoolBenchRow). With a nonzero chaosSeed
// it also runs the retry/fallback leg (see PoolBenchChaos).
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
	runtime.GC()
	oldGC := debug.SetGCPercent(-1)
	restored := false
	restoreGC := func() {
		if !restored {
			restored = true
			debug.SetGCPercent(oldGC)
		}
	}
	defer restoreGC()
	for _, p := range workerCounts {
		if p < 1 {
			return nil, fmt.Errorf("poolbench: bad worker count %d", p)
		}
		// Warm the pool: the first checkout is a cold build by definition.
		l, err := tp.Checkout(p, kind)
		if err != nil {
			return nil, err
		}
		l.Release(nil)

		// Steady-state rendezvous baseline: marginal per-barrier cost on a
		// held lease, from widening the body 1 → 9 barriers.
		baseline, err := measureBarrierBaseline(tp, p, kind, samples)
		if err != nil {
			return nil, err
		}

		cold := make([]time.Duration, 0, samples)
		pooled := make([]time.Duration, 0, samples)
		for i := 0; i < samples; i++ {
			t0 := time.Now()
			team := spmdrt.NewTeam(p, kind)
			if err := team.Run(func(w int) { team.Barrier(w) }); err != nil {
				return nil, fmt.Errorf("poolbench: cold run P=%d: %w", p, err)
			}
			cold = append(cold, time.Since(t0))
			// The cold team's worker goroutines are still exiting when Run
			// returns (the join fires on the last Done, not the last exit).
			// Let the scheduler drain them so cold teardown is not billed
			// to the pooled window that follows.
			settle(p)

			t0 = time.Now()
			l, err := tp.Checkout(p, kind)
			if err != nil {
				return nil, err
			}
			tm := l.Team().Team()
			if err := l.Team().Run(func(w int) { tm.Barrier(w) }); err != nil {
				return nil, fmt.Errorf("poolbench: pooled run P=%d: %w", p, err)
			}
			l.Release(nil)
			pooled = append(pooled, time.Since(t0))
			settle(p)
		}
		row := PoolBenchRow{
			Workers:          p,
			ColdNS:           medianDuration(cold).Nanoseconds(),
			PooledNS:         medianDuration(pooled).Nanoseconds(),
			BaselineNS:       baseline.Nanoseconds(),
			ColdOverheadNS:   overheadNS(medianDuration(cold), baseline),
			PooledOverheadNS: overheadNS(medianDuration(pooled), baseline),
		}
		row.Speedup = float64(row.ColdOverheadNS) / float64(row.PooledOverheadNS)
		rep.Rows = append(rep.Rows, row)
	}
	restoreGC()
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
	runN := func(nb int) (time.Duration, error) {
		ds := make([]time.Duration, 0, samples)
		body := func(w int) {
			for j := 0; j < nb; j++ {
				tm.Barrier(w)
			}
		}
		for i := 0; i < samples; i++ {
			t0 := time.Now()
			if err := l.Team().Run(body); err != nil {
				return 0, fmt.Errorf("poolbench: baseline run P=%d nb=%d: %w", p, nb, err)
			}
			ds = append(ds, time.Since(t0))
		}
		return medianDuration(ds), nil
	}
	one, err := runN(1)
	if err != nil {
		return 0, err
	}
	nine, err := runN(9)
	if err != nil {
		return 0, err
	}
	marginal := (nine - one) / 8
	if marginal < 0 {
		marginal = 0
	}
	return marginal, nil
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

// overheadNS is total minus the rendezvous baseline, clamped at 1ns so a
// pooled cycle that beats the steady-state barrier (co-arrival can) never
// yields a zero or negative divisor.
func overheadNS(total, baseline time.Duration) int64 {
	oh := (total - baseline).Nanoseconds()
	if oh < 1 {
		oh = 1
	}
	return oh
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
// cold/pooled columns are full one-rendezvous cycle totals; the overhead
// columns subtract the steady-state rendezvous baseline, and the speedup
// compares overheads (see PoolBenchRow).
func TableP(w io.Writer, rep *PoolBenchReport) {
	fmt.Fprintf(w, "Table P: team provisioning, cold spawn vs pooled reuse (%s barrier, median of %d, one-rendezvous body)\n",
		rep.Barrier, rep.Samples)
	fmt.Fprintf(w, "%-4s %12s %12s %12s %12s %12s %10s\n",
		"P", "cold", "pooled", "rendezvous", "cold-oh", "pooled-oh", "speedup")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-4d %12s %12s %12s %12s %12s %9.2fx\n",
			r.Workers,
			time.Duration(r.ColdNS).Round(100*time.Nanosecond),
			time.Duration(r.PooledNS).Round(100*time.Nanosecond),
			time.Duration(r.BaselineNS).Round(100*time.Nanosecond),
			time.Duration(r.ColdOverheadNS).Round(100*time.Nanosecond),
			time.Duration(r.PooledOverheadNS).Round(100*time.Nanosecond),
			r.Speedup)
	}
	if ch := rep.Chaos; ch != nil {
		fmt.Fprintf(w, "chaos leg (%s, stall-injected, seed %d): %d/%d runs recovered — %d retries, %d sequential fallbacks, checksums ok: %v\n",
			ch.Kernel, rep.ChaosSeed, ch.Runs, ch.Runs, ch.Retries, ch.Fallbacks, ch.ChecksumsOK)
		fmt.Fprintf(w, "pool: %d checkouts, %d reuses, %d quarantined, %d rebuilt\n",
			ch.Pool.Checkouts, ch.Pool.Reuses, ch.Pool.Quarantines, ch.Pool.Rebuilt)
	}
}

// WritePoolBenchJSON writes the report as a versioned benchtab-pool
// envelope (the BENCH_pool.json artifact).
func WritePoolBenchJSON(w io.Writer, rep *PoolBenchReport) error {
	return envelope.Write(w, envelope.ToolPoolBench, rep)
}

func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[(len(ds)-1)/2]
}
