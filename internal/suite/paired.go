package suite

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
)

// Leg is one side of a paired comparison: it does its work once and
// returns its own measure of it (a run's Elapsed, a whole-request wall, a
// profile's total wait).
type Leg func() (time.Duration, error)

// runLeg is the leg that runs r once and takes measure of the result.
func runLeg(r *core.Runner, measure func(*core.Result) time.Duration) Leg {
	return func() (time.Duration, error) {
		res, err := r.Run()
		if err != nil {
			return 0, err
		}
		return measure(res), nil
	}
}

// elapsed measures a run by the executor's own clock.
func elapsed(res *core.Result) time.Duration { return res.Elapsed }

// Verdict is the outcome of judging a Comparison against a tolerance.
type Verdict string

const (
	Better     Verdict = "better"
	Same       Verdict = "same"
	Worse      Verdict = "worse"
	Unresolved Verdict = "unresolved"
)

// Comparison is what Paired measured: B against the reference A.
type Comparison struct {
	// A and B are the per-pair samples in pair order (the warm-up pair is
	// not among them).
	A, B []time.Duration
	// MedianA and MedianB are each side's median sample.
	MedianA, MedianB time.Duration
	// Delta is the median of the paired deltas B[i]-A[i]: positive means B
	// costs more. Noise is the interquartile range of those deltas.
	Delta, Noise time.Duration
}

// Paired is the one way this repository compares two timings: one warm-up
// pair, then n pairs in which the legs run back to back and the order flips
// every pair. A pair shares whatever speed the host is at for those few
// milliseconds, so the per-pair delta cancels the speed steps that make
// block-sequential legs and minima compare two different hosts
// (bench/README.md measured them); flipping the order cancels what the
// second leg of a pair inherits from the first. A leg error aborts the
// series and is returned.
func Paired(n int, a, b Leg) (Comparison, error) {
	if n < 2 {
		return Comparison{}, fmt.Errorf("suite.Paired: need at least 2 pairs, got %d", n)
	}
	c := Comparison{A: make([]time.Duration, 0, n), B: make([]time.Duration, 0, n)}
	deltas := make([]time.Duration, 0, n)
	for i := 0; i <= n; i++ { // pair 0 is the warm-up
		first, second := a, b
		if i%2 == 1 {
			first, second = b, a
		}
		d1, err := first()
		if err != nil {
			return Comparison{}, err
		}
		d2, err := second()
		if err != nil {
			return Comparison{}, err
		}
		if i == 0 {
			continue
		}
		if i%2 == 1 {
			d1, d2 = d2, d1
		}
		c.A = append(c.A, d1)
		c.B = append(c.B, d2)
		deltas = append(deltas, d2-d1)
	}
	c.MedianA, c.MedianB = quantile(c.A, 0.5), quantile(c.B, 0.5)
	c.Delta = quantile(deltas, 0.5)
	c.Noise = quantile(deltas, 0.75) - quantile(deltas, 0.25)
	return c, nil
}

// Verdict judges B against A with tol as a fraction of A's median (0.10
// lets B cost 10% more; 0 asks only whether the two differ). Worse or
// Better needs the delta to clear both the tolerance and the noise bar;
// a noise bar wider than the tolerance with no such delta is Unresolved —
// the series cannot tell — and anything else is Same.
func (c Comparison) Verdict(tol float64) Verdict {
	bound := time.Duration(tol * float64(c.MedianA))
	switch {
	case c.Delta > bound && c.Delta > c.Noise:
		return Worse
	case -c.Delta > bound && -c.Delta > c.Noise:
		return Better
	case c.Noise > bound:
		return Unresolved
	}
	return Same
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics, the convention of bench/estimator.go; xs is not modified.
func quantile(xs []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}
