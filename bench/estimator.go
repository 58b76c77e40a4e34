package main

import (
	"math"
	"math/rand"
	"sort"
)

// The one estimator every timing metric uses. A program's value is the
// lower decile of its pooled samples. Host steal and GC add time and never
// remove it, and the host this was sized on moves between discrete speeds
// for seconds at a time (a fixed spin loop reads 171 us in the fastest and
// 218 us in the slowest), so a run's samples are a mixture of fast and
// slow states and the lower quartile lands in one or the other depending
// on the minute. Over eight 20 s runs of sync_barrier the
// geomean of medians had a standard deviation of 15.7% and a range of
// 45%, that of lower quartiles 13.2% and 35%, that of lower deciles 9.0%
// and 24%; on sync_p2p 5.9% and 20%, 4.8% and 16%, 4.2% and 13%. The
// minimum did no better than the decile and was worse on compute_dense
// (6.7% against 3.7%), where one run in fifty is a third faster than the
// fast state of the rest. The
// decile needs a tenth of the samples to meet the fast state, the
// quartile a quarter. A workload's value is the geometric mean over its
// programs, so every program weighs the same whatever its size.

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func low(xs []float64) float64    { return quantile(xs, 0.10) }
func q1(xs []float64) float64     { return quantile(xs, 0.25) }
func median(xs []float64) float64 { return quantile(xs, 0.50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// geomean is the geometric mean of the positive values of xs. Timings are
// never zero; a program that produced no sample of a class is skipped
// rather than zeroing the whole workload.
func geomean(xs []float64) float64 {
	logs, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			logs += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logs / float64(n))
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// optFirst is the order of the i-th opt/base pair of a program: it flips
// every pair, so whatever the second run of a pair inherits from the
// first (warm caches, a GC the first one triggered) lands on both sides
// equally.
func optFirst(i int) bool { return i%2 == 0 }

// quota turns a fractional per-round rate into whole operations per
// round, carrying the remainder, so that 0.4 requests per round is two
// requests every five rounds.
type quota struct{ rate, acc float64 }

func (q *quota) take() int {
	q.acc += q.rate
	n := int(q.acc)
	q.acc -= float64(n)
	return n
}

// roundOrder is the order in which one round visits the n programs of a
// workload. Every program appears once per round, so slow drift of the
// host spreads over all of them; the seed shuffles the order so no
// program always runs after the same neighbor.
func roundOrder(rng *rand.Rand, n int) []int { return rng.Perm(n) }
