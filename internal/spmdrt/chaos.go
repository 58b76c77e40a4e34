package spmdrt

import (
	"math/rand"
	"runtime"
	"time"
)

// Chaos is a deterministic, seed-driven schedule perturbation layer for
// stress-testing eliminated synchronization under adversarial thread
// timing. Each worker draws from its own seed-derived stream, so the
// *decision sequence* (which perturbation fires at each sync point) is
// reproducible from the seed alone even though wall-clock timing is not.
// One designated slow worker (chosen by the seed) receives extra delays,
// modeling the straggler that barrier elimination must still tolerate.
//
// All methods are safe on a nil receiver (no-ops), so callers can thread
// an optional *Chaos without guards. Each worker must only call with its
// own rank: the per-worker streams are not locked.
type Chaos struct {
	n    int
	slow int
	ws   []chaosState
}

type chaosState struct {
	rng *rand.Rand
	_   pad
}

// NewChaos builds a perturbation layer for n workers from a seed.
func NewChaos(seed int64, n int) *Chaos {
	if n <= 0 {
		panic("spmdrt: chaos needs at least one worker")
	}
	c := &Chaos{n: n, ws: make([]chaosState, n)}
	c.slow = int(splitmix(uint64(seed)) % uint64(n))
	for w := range c.ws {
		c.ws[w].rng = rand.New(rand.NewSource(int64(splitmix(uint64(seed) ^ uint64(w+1)*0x9E3779B97F4A7C15))))
	}
	return c
}

// splitmix is SplitMix64, used to decorrelate per-worker seeds.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// PreSync perturbs worker w just before it enters a synchronization
// operation (arriving at a barrier late, posting a counter late).
func (c *Chaos) PreSync(w int) {
	if c == nil {
		return
	}
	c.perturb(w)
}

// PostSync perturbs worker w just after it leaves a synchronization
// operation (racing ahead of slower peers into the next group).
func (c *Chaos) PostSync(w int) {
	if c == nil {
		return
	}
	c.perturb(w)
}

// perturb draws one perturbation decision and applies it. The returned
// code identifies the decision for determinism tests: 0 none, 1..4 yield
// burst length, 100+µs sleep, 1000+µs straggler sleep.
func (c *Chaos) perturb(w int) int {
	r := c.ws[w].rng
	code := 0
	switch p := r.Intn(100); {
	case p < 35:
		n := 1 + r.Intn(4)
		code = n
		for i := 0; i < n; i++ {
			runtime.Gosched()
		}
	case p < 43:
		d := 1 + r.Intn(15)
		code = 100 + d
		time.Sleep(time.Duration(d) * time.Microsecond)
	}
	if w == c.slow && r.Intn(3) == 0 {
		d := 5 + r.Intn(45)
		code = 1000 + d
		time.Sleep(time.Duration(d) * time.Microsecond)
	}
	return code
}
