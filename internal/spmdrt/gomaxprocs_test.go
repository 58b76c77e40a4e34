package spmdrt

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// withGOMAXPROCS pins GOMAXPROCS for one test. These tests cannot run in
// parallel with each other (the setting is process-global).
func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// The primitives busy-wait; without the spin → Gosched → sleep escalation a
// single-P scheduler could livelock (the spinning worker starves the worker
// it waits for). Exercising every primitive under GOMAXPROCS=1 and with
// teams far wider than GOMAXPROCS proves waits always yield the processor.

func TestBarriersSingleProc(t *testing.T) {
	withGOMAXPROCS(t, 1)
	for _, k := range []BarrierKind{Central, Tree, Dissemination} {
		testBarrierOrdering(t, k, 8, 25)
	}
}

func TestBarriersOversubscribed(t *testing.T) {
	withGOMAXPROCS(t, 2)
	for _, k := range []BarrierKind{Central, Tree, Dissemination} {
		testBarrierOrdering(t, k, 16, 25)
	}
}

func TestCounterSingleProc(t *testing.T) {
	withGOMAXPROCS(t, 1)
	team := NewTeam(8, Central)
	c := team.NewCounter()
	var sum atomic.Int64
	if err := team.Run(func(w int) {
		// Each round: producers 0..3 increment, consumers 4..7 wait on the
		// cumulative target. Under GOMAXPROCS=1 consumers may be scheduled
		// first and must yield to let producers run.
		for round := int64(1); round <= 20; round++ {
			if w < 4 {
				c.Add(1)
			} else {
				c.WaitGEAs(w, 4*round)
			}
			team.Barrier(w)
		}
		sum.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 8 {
		t.Fatalf("only %d workers completed", sum.Load())
	}
}

func TestP2PPipelineSingleProc(t *testing.T) {
	withGOMAXPROCS(t, 1)
	const n = 8
	team := NewTeam(n, Central)
	p := team.NewP2P()
	order := make([]atomic.Int64, n)
	bad := atomic.Bool{}
	if err := team.Run(func(w int) {
		for s := int64(1); s <= 50; s++ {
			if w > 0 {
				p.WaitForAs(w, w-1, s)
				if order[w-1].Load() < s {
					bad.Store(true)
				}
			}
			order[w].Store(s)
			p.Post(w)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if bad.Load() {
		t.Fatal("pipeline order violated under GOMAXPROCS=1")
	}
}

func TestP2PPipelineOversubscribed(t *testing.T) {
	withGOMAXPROCS(t, 2)
	const n = 24 // far wider than GOMAXPROCS
	team := NewTeam(n, Central)
	p := team.NewP2P()
	if err := team.Run(func(w int) {
		for s := int64(1); s <= 20; s++ {
			if w > 0 {
				p.WaitForAs(w, w-1, s)
			}
			p.Post(w)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < n; w++ {
		if p.slots[w].v.Load() != 20 {
			t.Errorf("worker %d progress = %d, want 20", w, p.slots[w].v.Load())
		}
	}
}
