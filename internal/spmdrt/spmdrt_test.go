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
		}
	})
	if err != nil {
		t.Fatalf("%v barrier with %d workers: Run: %v", kind, n, err)
	}
	if f := fail.Load(); f != 0 {
		t.Fatalf("%v barrier with %d workers leaked: code %d", kind, n, f)
	}
	if got := team.Stats.Barriers.Load(); got != int64(2*rounds) {
		t.Errorf("barrier episodes = %d, want %d", got, 2*rounds)
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
	c := NewCounter()
	team := NewTeam(8, Central)
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
	c := NewCounter()
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
	p := NewP2P(n)
	team := NewTeam(n, Central)
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

func TestStatsSnapshot(t *testing.T) {
	var s Stats
	s.Barriers.Add(3)
	s.CounterIncrs.Add(2)
	s.CounterWaits.Add(5)
	s.NeighborWaits.Add(7)
	s.Dispatches.Add(1)
	snap := s.Snapshot()
	if snap.Barriers != 3 || snap.CounterIncrs != 2 || snap.CounterWaits != 5 ||
		snap.NeighborWaits != 7 || snap.Dispatches != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.String() == "" {
		t.Error("empty string")
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

func TestNewBarrierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBarrier(0 workers) did not panic")
		}
	}()
	NewBarrier(Tree, 0)
}

func TestSingleWorkerBarrierIsNoop(t *testing.T) {
	for _, k := range []BarrierKind{Central, Tree, Dissemination} {
		team := NewTeam(1, k)
		if err := team.Run(func(w int) {
			for i := 0; i < 10; i++ {
				team.Barrier(w)
			}
		}); err != nil {
			t.Fatalf("%v: Run: %v", k, err)
		}
		if team.Stats.Barriers.Load() != 10 {
			t.Errorf("%v: episodes = %d", k, team.Stats.Barriers.Load())
		}
	}
}

// TestP2PSlotsDoNotShareALine: neighbouring workers post to neighbouring
// slots concurrently, so each slot has to start at least one (adjacent-line
// prefetched) cache-line pair after the one before it.
func TestP2PSlotsDoNotShareALine(t *testing.T) {
	p := NewP2P(4)
	for w := 1; w < 4; w++ {
		if d := uintptr(unsafe.Pointer(&p.slots[w].v)) - uintptr(unsafe.Pointer(&p.slots[w-1].v)); d < 128 {
			t.Fatalf("slots %d and %d are %d bytes apart", w-1, w, d)
		}
	}
}

// TestAddTallyIsExact folds two workers' tallies into sited and unsited
// counters and reads back exactly what they counted.
func TestAddTallyIsExact(t *testing.T) {
	var s Stats
	s.InitSites(2)
	s.AddTally([]SiteCounts{{CounterIncrs: 1, CounterWaits: 2}, {NeighborWaits: 3}, {NeighborWaits: 5}})
	s.AddTally([]SiteCounts{{CounterWaits: 2}, {NeighborWaits: 4}, {}})
	snap := s.Snapshot()
	want := StatsSnapshot{CounterIncrs: 1, CounterWaits: 4, NeighborWaits: 12, PerSite: map[int]SiteCounts{
		1: {CounterIncrs: 1, CounterWaits: 4}, 2: {NeighborWaits: 7}}}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot %+v, want %+v", snap, want)
	}
}
