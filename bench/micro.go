package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/spmdrt"
)

// spinSink keeps the calibration loop's result alive; atomic because
// parallelCapacity runs the loop on several goroutines.
var spinSink atomic.Uint64

// spinLoop is a fixed amount of pure computation (about 0.2 ms on the
// host this was sized on): no memory traffic, no allocation, no calls
// into the system under test. Its time is the host's speed and nothing
// else.
func spinLoop() {
	x := 1.0
	for i := 0; i < 120000; i++ {
		x = x*1.0000001 + 1e-9
	}
	spinSink.Store(math.Float64bits(x))
}

// spinSample records one calibration sample; measure takes one before
// every program's turn in every round, so the spread of the series is the
// host's noise during this very pass.
func (h *harness) spinSample() {
	t0 := time.Now()
	spinLoop()
	h.spin = append(h.spin, usOf(time.Since(t0)))
}

// parallelCapacity is how many cores' worth of work P goroutines get:
// one goroutine's time for n loops, times P, over the time P goroutines
// take to do n loops each. About 1.0 means P workers share one core.
func parallelCapacity(p int) float64 {
	const loops = 20
	batch := func(workers int) float64 {
		var best time.Duration
		for rep := 0; rep < 5; rep++ {
			var wg sync.WaitGroup
			t0 := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < loops; i++ {
						spinLoop()
					}
				}()
			}
			wg.Wait()
			if d := time.Since(t0); rep == 0 || d < best {
				best = d
			}
		}
		return best.Seconds()
	}
	return batch(1) * float64(p) / batch(p)
}

// micro measures the runtime's primitives through its public API, each
// for about a tenth of budget. Values are the lower decile of per-episode times over
// batches.
func (h *harness) micro(budget time.Duration, out *metricSet) {
	per := budget / 7
	batches := func(span string, episodes int, run func()) []float64 {
		var xs []float64
		deadline := time.Now().Add(per)
		for len(xs) == 0 || (!h.quick && time.Now().Before(deadline)) {
			d := h.timeCall(span, nil, run)
			xs = append(xs, float64(d.Nanoseconds())/float64(episodes))
		}
		return xs
	}
	const n = 200
	p := h.p
	for _, kind := range []spmdrt.BarrierKind{spmdrt.Central, spmdrt.Tree, spmdrt.Dissemination} {
		team := spmdrt.NewTeam(p, kind)
		xs := batches("spmdrt.Team.Barrier "+kind.String(), n, func() {
			err := team.Run(func(w int) {
				for i := 0; i < n; i++ {
					team.Barrier(w)
				}
			})
			h.check(err == nil, "microbenchmark barrier %s: %v", kind, err)
		})
		out.set("spmdrt.barrier_ns."+kind.String(), low(xs))
	}

	// A token goes round the ring of P workers n times; every hop is one
	// post and one satisfied wait.
	team := spmdrt.NewTeam(p, spmdrt.Central)
	ring := func(post func(w int), wait func(w int, v int64)) {
		err := team.Run(func(w int) {
			prev := (w + p - 1) % p
			for i := int64(1); i <= n; i++ {
				if w == 0 {
					post(0)
					wait(prev, i)
				} else {
					wait(prev, i)
					post(w)
				}
			}
		})
		h.check(err == nil, "microbenchmark ring: %v", err)
	}
	xs := batches("spmdrt.Counter ring", n*p, func() {
		counters := make([]*spmdrt.Counter, p)
		for w := range counters {
			counters[w] = team.NewCounter()
		}
		ring(func(w int) { counters[w].Add(1) }, func(w int, v int64) { counters[w].WaitGE(v) })
	})
	out.set("spmdrt.counter_ns", low(xs))
	xs = batches("spmdrt.P2P ring", n*p, func() {
		p2p := team.NewP2P()
		ring(func(w int) { p2p.Post(w) }, func(w int, v int64) { p2p.WaitFor(w, v) })
	})
	out.set("spmdrt.p2p_ns", low(xs))

	pl := pool.New(pool.Options{})
	defer pl.Close()
	xs = batches("pool.Checkout+Release", n, func() {
		for i := 0; i < n; i++ {
			lease, err := pl.Checkout(p, spmdrt.Central)
			if err != nil {
				h.check(false, "microbenchmark pool checkout: %v", err)
				return
			}
			lease.Release(nil)
		}
	})
	out.set("pool.lease_us", low(xs)/1e3)
	const spawns = 10
	xs = batches("spmdrt.NewPersistentTeam+Close", spawns, func() {
		for i := 0; i < spawns; i++ {
			spmdrt.NewPersistentTeam(p, spmdrt.Central).Close()
		}
	})
	out.set("pool.cold_spawn_us", low(xs)/1e3)
}
