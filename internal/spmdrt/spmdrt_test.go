package spmdrt

import (
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"
)

func testBarrierOrdering(t *testing.T, kind BarrierKind, n, rounds int) {
	t.Helper()
	team := NewTeam(n, kind)
	// Each worker increments its slot, crosses the barrier, and checks
	// that every other worker's slot reached the round number: a barrier
	// that lets anyone through early fails immediately.
	slots := make([]atomic.Int64, n)
	fail := atomic.Int64{}
	episodes := 0 // worker 0's barrier calls
	err := team.Run(func(w int) {
		for r := 1; r <= rounds; r++ {
			slots[w].Store(int64(r))
			team.Barrier(w)
			for i := 0; i < n; i++ {
				if got := slots[i].Load(); got < int64(r) {
					fail.Store(int64(i)*1000000 + got)
				}
			}
			team.Barrier(w)
			if w == 0 {
				episodes += 2
			}
		}
	})
	if err != nil {
		t.Fatalf("%v barrier with %d workers: Run: %v", kind, n, err)
	}
	if f := fail.Load(); f != 0 {
		t.Fatalf("%v barrier with %d workers leaked: code %d", kind, n, f)
	}
	if episodes != 2*rounds {
		t.Errorf("barrier episodes = %d, want %d", episodes, 2*rounds)
	}
}

func TestBarriers(t *testing.T) {
	kinds := []BarrierKind{Central, Tree, Dissemination}
	sizes := []int{1, 2, 3, 4, 7, 8, 16, 33} // includes > NumCPU and non powers of two
	for _, k := range kinds {
		for _, n := range sizes {
			k, n := k, n
			t.Run(k.String()+"/"+itoa(n), func(t *testing.T) {
				t.Parallel()
				testBarrierOrdering(t, k, n, 50)
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestCounterProducerConsumer(t *testing.T) {
	team := NewTeam(8, Central)
	c := team.NewCounter()
	data := make([]int64, 8)
	err := team.Run(func(w int) {
		if w < 4 {
			data[w] = int64(w) + 100
			c.Add(1)
		} else {
			c.WaitGE(4)
			for i := 0; i < 4; i++ {
				if data[i] != int64(i)+100 {
					t.Errorf("worker %d read stale data[%d]=%d", w, i, data[i])
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.Load() != 4 {
		t.Errorf("counter = %d, want 4", c.Load())
	}
}

func TestCounterMonotonicWaits(t *testing.T) {
	c := NewTeam(1, Central).NewCounter()
	done := make(chan struct{})
	go func() {
		c.WaitGE(10)
		close(done)
	}()
	for i := 0; i < 10; i++ {
		c.Add(1)
	}
	<-done
}

func TestP2PPipeline(t *testing.T) {
	const n = 6
	const steps = 200
	team := NewTeam(n, Central)
	p := team.NewP2P()
	// Pipeline: worker w at step s waits for worker w-1 to have posted
	// step s. progress[w] must therefore never exceed progress[w-1].
	progress := make([]atomic.Int64, n)
	bad := atomic.Bool{}
	err := team.Run(func(w int) {
		for s := int64(1); s <= steps; s++ {
			if w > 0 {
				p.WaitFor(w-1, s)
				if progress[w-1].Load() < s {
					bad.Store(true)
				}
			}
			progress[w].Store(s)
			p.Post(w)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bad.Load() {
		t.Fatal("pipeline order violated")
	}
	for w := 0; w < n; w++ {
		if p.Progress(w) != steps {
			t.Errorf("worker %d progress = %d", w, p.Progress(w))
		}
	}
}

// TestStatsSnapshot pins the snapshot's renderings: the totals line never
// mentions sites, and per-site output runs in ascending site order.
func TestStatsSnapshot(t *testing.T) {
	snap := StatsSnapshot{Barriers: 3, CounterIncrs: 2, CounterWaits: 5, NeighborWaits: 7, Dispatches: 1,
		PerSite: map[int]SiteCounts{4: {NeighborWaits: 7}, 2: {Barriers: 3}}}
	if got, want := snap.String(), "barriers=3 counters(incr=2,wait=5) neighbor-waits=7 dispatches=1"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := snap.SiteIDs(); !reflect.DeepEqual(got, []int{2, 4}) {
		t.Errorf("SiteIDs() = %v, want [2 4]", got)
	}
	want := "site 2: barriers=3 counters(incr=0,wait=0) neighbor-waits=0\n" +
		"site 4: barriers=0 counters(incr=0,wait=0) neighbor-waits=7"
	if got := snap.PerSiteString(); got != want {
		t.Errorf("PerSiteString() = %q, want %q", got, want)
	}
}

func TestBarrierKindString(t *testing.T) {
	if Central.String() != "central" || Tree.String() != "tree" || Dissemination.String() != "dissemination" {
		t.Error("kind strings wrong")
	}
}

func TestNewTeamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTeam(0) did not panic")
		}
	}()
	NewTeam(0, Central)
}

func TestSingleWorkerBarrierIsNoop(t *testing.T) {
	for _, k := range []BarrierKind{Central, Tree, Dissemination} {
		team := NewTeam(1, k)
		episodes := 0
		if err := team.Run(func(w int) {
			for i := 0; i < 10; i++ {
				team.Barrier(w)
				episodes++
			}
		}); err != nil {
			t.Fatalf("%v: Run: %v", k, err)
		}
		if episodes != 10 {
			t.Errorf("%v: episodes = %d", k, episodes)
		}
	}
}

// TestP2PSlotsDoNotShareALine: neighbouring workers post to neighbouring
// slots concurrently, so each slot has to start at least one (adjacent-line
// prefetched) cache-line pair after the one before it.
func TestP2PSlotsDoNotShareALine(t *testing.T) {
	p := NewTeam(4, Central).NewP2P()
	for w := 1; w < 4; w++ {
		if d := uintptr(unsafe.Pointer(&p.slots[w].v)) - uintptr(unsafe.Pointer(&p.slots[w-1].v)); d < 128 {
			t.Fatalf("slots %d and %d are %d bytes apart", w-1, w, d)
		}
	}
}
