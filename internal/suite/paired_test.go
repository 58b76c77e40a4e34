package suite

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// fakeHost drives synthetic legs without a clock: a leg's cost is its
// nominal cost times the host's speed factor at that call, where the
// factor follows a script indexed by the number of legs run so far.
type fakeHost struct {
	calls int
	speed func(call int) float64
}

func (h *fakeHost) leg(cost time.Duration) Leg {
	return func() (time.Duration, error) {
		d := cost
		if h.speed != nil {
			d = time.Duration(float64(cost) * h.speed(h.calls))
		}
		h.calls++
		return d, nil
	}
}

// step moves the host from one speed factor to another at the given leg
// call — the discrete speed steps bench/README.md measured on this host.
func step(call int, before, after float64) func(int) float64 {
	return func(c int) float64 {
		if c >= call {
			return after
		}
		return before
	}
}

// blockMinima is the scheme the guards used before Paired: the minimum of
// n runs of a, then the minimum of n runs of b.
func blockMinima(n int, a, b Leg) (minA, minB time.Duration) {
	block := func(l Leg) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < n; i++ {
			if d, _ := l(); d < best {
				best = d
			}
		}
		return best
	}
	return block(a), block(b)
}

// TestPairedVerdicts drives the sampler with scripted hosts. The slowdown
// cases are the reason it exists: a host that changes speed mid-series
// changes it for both legs of every later pair, so the paired deltas keep
// the true offset.
func TestPairedVerdicts(t *testing.T) {
	const ms = time.Millisecond
	jitter := func(seed int64, lo, hi float64) func(int) float64 {
		rng := rand.New(rand.NewSource(seed))
		return func(int) float64 { return lo + (hi-lo)*rng.Float64() }
	}
	// A leg slower only when it runs second in its pair (it inherits the
	// first one's garbage, say) is not slower: flipping the order lands the
	// penalty on both sides and it cancels out of the median delta.
	secondSlow := func(c int) float64 { return 1 + 0.2*float64(c%2) }
	slowdown := step(15, 1, 1.3) // mid-series for the 2·14+2 calls below
	cases := []struct {
		name      string
		speed     func(int) float64
		n         int
		a, b      time.Duration
		tol       float64
		want      Verdict
		zeroDelta bool
	}{
		{"identical legs", nil, 10, ms, ms, 0.10, Same, true},
		{"identical legs, tolerance 0", nil, 10, ms, ms, 0, Same, true},
		{"second-position penalty cancels", secondSlow, 10, ms, ms, 0.10, Unresolved, true},
		{"5% offset inside ±40% jitter: never worse", jitter(1, 0.6, 1.4), 30, ms, 1050 * time.Microsecond, 0.10, Unresolved, false},
		{"15% offset, 10% tracing bound, 3% jitter: the gate bites", jitter(2, 0.97, 1.03), 15, 8 * ms, 9200 * time.Microsecond, 0.10, Worse, false},
		{"15% offset inside a 20% bound", jitter(2, 0.97, 1.03), 15, 8 * ms, 9200 * time.Microsecond, 0.20, Same, false},
		{"15% offset in B's favour", jitter(2, 0.97, 1.03), 15, 9200 * time.Microsecond, 8 * ms, 0.10, Better, false},
		{"15% offset across a host slowdown", slowdown, 14, 10 * ms, 11500 * time.Microsecond, 0.10, Worse, false},
		{"no offset across a host slowdown", slowdown, 14, 10 * ms, 10 * ms, 0.10, Same, true},
	}
	for _, tc := range cases {
		h := &fakeHost{speed: tc.speed}
		cmp, err := Paired(tc.n, h.leg(tc.a), h.leg(tc.b))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(cmp.A) != tc.n || len(cmp.B) != tc.n || h.calls != 2*tc.n+2 {
			t.Errorf("%s: want %d samples a side after one warm-up pair, got %d/%d from %d calls",
				tc.name, tc.n, len(cmp.A), len(cmp.B), h.calls)
		}
		if v := cmp.Verdict(tc.tol); v != tc.want {
			t.Errorf("%s: verdict %s, want %s (delta %s = %.1f%%, noise %s)",
				tc.name, v, tc.want, cmp.Delta, cmp.Pct(), cmp.Noise)
		}
		if tc.zeroDelta && cmp.Delta != 0 {
			t.Errorf("%s: delta %s, want 0", tc.name, cmp.Delta)
		}
	}
}

// TestBlockMinimaMistakeSpeedSteps pins what Paired replaced: over the
// same series of host speeds as the slowdown cases above, two sequential
// blocks land on two different hosts.
func TestBlockMinimaMistakeSpeedSteps(t *testing.T) {
	const n, tol = 15, 0.10
	a, b := 10*time.Millisecond, 11500*time.Microsecond
	// Unchanged code, host slows down between the blocks: a 10% gate fails.
	h := &fakeHost{speed: step(n, 1, 1.3)}
	minA, minB := blockMinima(n, h.leg(a), h.leg(a))
	if over := float64(minB)/float64(minA) - 1; over <= tol {
		t.Errorf("block minima read %.1f%%; expected them to bill the step to B", 100*over)
	}
	// A real 15% regression, host speeds up between the blocks: it passes.
	h = &fakeHost{speed: step(n, 1.3, 1)}
	minA, minB = blockMinima(n, h.leg(a), h.leg(b))
	if over := float64(minB)/float64(minA) - 1; over > tol {
		t.Errorf("block minima read %.1f%%; expected the speed-up to mask the offset", 100*over)
	}
}

func TestPairedErrors(t *testing.T) {
	h := &fakeHost{}
	for _, n := range []int{-1, 0, 1} {
		if _, err := Paired(n, h.leg(1), h.leg(1)); err == nil {
			t.Errorf("n=%d: no error", n)
		}
	}
	if h.calls != 0 {
		t.Errorf("legs ran %d times before n was rejected", h.calls)
	}
	boom := errors.New("boom")
	calls := 0
	failing := func() (time.Duration, error) {
		calls++
		if calls == 3 {
			return 0, boom
		}
		return 1, nil
	}
	if _, err := Paired(5, h.leg(1), failing); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 3 || h.calls != 3 {
		t.Fatalf("series ran on after the error: %d failing-leg calls, %d other", calls, h.calls)
	}
}
