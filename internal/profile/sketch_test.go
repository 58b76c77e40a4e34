package profile

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestBucketRoundTrip pins the bucket geometry: every boundary value maps
// into a bucket whose [lo, hi] range contains it, and the ranges tile the
// axis without gaps or overlap.
func TestBucketRoundTrip(t *testing.T) {
	for b := 0; b < sketchBuckets; b++ {
		lo, hi := bucketLo(b), bucketHi(b)
		if lo > hi {
			t.Fatalf("bucket %d: lo %d > hi %d", b, lo, hi)
		}
		if bucketOf(lo) != b {
			t.Fatalf("bucketOf(lo=%d) = %d, want %d", lo, bucketOf(lo), b)
		}
		if b < sketchBuckets-1 {
			if bucketOf(hi) != b {
				t.Fatalf("bucketOf(hi=%d) = %d, want %d", hi, bucketOf(hi), b)
			}
			if bucketLo(b+1) != hi+1 {
				t.Fatalf("gap between bucket %d (hi %d) and %d (lo %d)", b, hi, b+1, bucketLo(b+1))
			}
		}
	}
	// Relative bucket width stays within 2^-subBits above the linear range.
	for b := 1 << (subBits + 1); b < sketchBuckets-1; b++ {
		lo, hi := bucketLo(b), bucketHi(b)
		if width, bound := float64(hi-lo+1), float64(lo)/float64(int64(1)<<subBits); width > bound+1 {
			t.Fatalf("bucket %d [%d,%d]: width %.0f exceeds relative bound %.0f", b, lo, hi, width, bound)
		}
	}
}

// exactQuantile is the nearest-rank sample quantile (the tracer's
// convention) over a sorted sample slice.
func exactQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[rank]
}

// TestSketchMergeQuantileProperty is the satellite property test: for
// random sample sets split across several sketches, the merged sketch's
// quantiles must stay within the sketch's rank/value-error bound of the
// exact quantiles recomputed over the concatenated samples — the merge
// itself must add no error beyond single-sketch bucketing.
func TestSketchMergeQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nSketches := 1 + rng.Intn(6)
		var all []int64
		var merged Sketch
		for i := 0; i < nSketches; i++ {
			var s Sketch
			n := 1 + rng.Intn(400)
			for j := 0; j < n; j++ {
				// Mix scales: sub-µs spin waits up to multi-ms stalls.
				var ns int64
				switch rng.Intn(3) {
				case 0:
					ns = rng.Int63n(2_000) // 0–2µs
				case 1:
					ns = rng.Int63n(200_000) // 0–200µs
				default:
					ns = rng.Int63n(20_000_000) // 0–20ms
				}
				s.Add(time.Duration(ns))
				all = append(all, ns)
			}
			if err := merged.Merge(&s); err != nil {
				t.Fatal(err)
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		if merged.Count != int64(len(all)) {
			t.Fatalf("trial %d: merged count %d, want %d", trial, merged.Count, len(all))
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			exact := exactQuantile(all, q)
			got := int64(merged.Quantile(q))
			// The exact ranked sample and the estimate must share a bucket
			// (or adjacent buckets, for rank rounding at bucket edges)...
			be, bg := bucketOf(exact), bucketOf(got)
			if d := be - bg; d < -1 || d > 1 {
				t.Fatalf("trial %d q=%.2f: estimate %d (bucket %d) vs exact %d (bucket %d): rank error > 1 bucket",
					trial, q, got, bg, exact, be)
			}
			// ...which bounds the value error by two bucket widths:
			// |got - exact| <= 2 * 2^-subBits * max(exact, floor) + 2.
			bound := int64(2) * (exact>>subBits + 2)
			if bound < 4 {
				bound = 4
			}
			diff := got - exact
			if diff < 0 {
				diff = -diff
			}
			if diff > bound {
				t.Fatalf("trial %d q=%.2f: |%d - %d| = %d exceeds bound %d",
					trial, q, got, exact, diff, bound)
			}
		}
	}
}

// TestSketchMergeEqualsConcatenation: building one sketch from all samples
// and merging per-chunk sketches must yield bit-identical state.
func TestSketchMergeEqualsConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var whole, merged Sketch
	for c := 0; c < 5; c++ {
		var part Sketch
		for j := 0; j < 300; j++ {
			ns := rng.Int63n(5_000_000)
			whole.Add(time.Duration(ns))
			part.Add(time.Duration(ns))
		}
		if err := merged.Merge(&part); err != nil {
			t.Fatal(err)
		}
	}
	wb, err := json.Marshal(whole)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(wb) != string(mb) {
		t.Fatalf("merged sketch differs from whole-sample sketch:\nwhole:  %s\nmerged: %s", wb, mb)
	}
}

// TestSketchJSONRoundTrip: serialize → parse → serialize must be a fixed
// point, and the parsed sketch must answer quantiles identically.
func TestSketchJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Sketch
	for i := 0; i < 1000; i++ {
		s.Add(time.Duration(rng.Int63n(10_000_000)))
	}
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("round trip not byte-stable:\n%s\n%s", b1, b2)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if s.Quantile(q) != back.Quantile(q) {
			t.Fatalf("q=%.2f differs after round trip: %v vs %v", q, s.Quantile(q), back.Quantile(q))
		}
	}
}

// TestSketchRejectsCorruptPayloads: the validating decoder must refuse
// out-of-range buckets, negative counts and totals that disagree with the
// header.
func TestSketchRejectsCorruptPayloads(t *testing.T) {
	for _, bad := range []string{
		`{"count":1,"sum_ns":5,"buckets":[[99999,1]]}`,
		`{"count":1,"sum_ns":5,"buckets":[[-1,1]]}`,
		`{"count":1,"sum_ns":5,"buckets":[[3,-1]]}`,
		`{"count":2,"sum_ns":5,"buckets":[[3,1]]}`,
	} {
		var s Sketch
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("decoded corrupt sketch without error: %s", bad)
		}
	}
}

// TestSketchEmptyAndEdges covers the empty sketch and extreme values.
func TestSketchEmptyAndEdges(t *testing.T) {
	var s Sketch
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	if got := s.Mean(); got != 0 {
		t.Fatalf("empty mean = %v, want 0", got)
	}
	s.Add(-5 * time.Second) // clamped to 0
	s.Add(0)
	s.Add(time.Duration(int64(1)<<62 - 1))
	if s.Count != 3 || s.MinNS != 0 {
		t.Fatalf("count=%d min=%d after edge adds", s.Count, s.MinNS)
	}
	if q := s.Quantile(1); int64(q) != s.MaxNS {
		t.Fatalf("q=1 gives %v, want max %d", q, s.MaxNS)
	}
}
