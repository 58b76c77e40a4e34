package profile

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Sketch is a mergeable wait-time quantile sketch: a fixed log-scale
// histogram of nanosecond durations with 2^subBits sub-buckets per octave
// (an HDR-histogram-style mantissa/exponent bucketing). Merging two
// sketches is exact — bucket counts add — so a sketch merged across N runs
// is bit-identical to the sketch of the concatenated samples, and the only
// approximation anywhere is the bucket width: a quantile estimate is off
// from the exact sample quantile by at most one bucket boundary, i.e. a
// bounded *relative* value error of 2^-subBits (12.5%) plus rank rounding.
//
// The in-memory form is a dense count array; the serialized form is sparse
// ([bucket, count] pairs in ascending bucket order) so an idle sketch
// costs a few bytes and serialization is deterministic by construction.
type Sketch struct {
	// Count and SumNS are exact totals, except that a SumNS which would
	// overflow int64 is set to sumOverflowNS (2^62-1).
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	// MinNS/MaxNS are the exact extreme samples (valid when Count > 0).
	MinNS int64 `json:"min_ns,omitempty"`
	MaxNS int64 `json:"max_ns,omitempty"`
	// counts[b] is the number of samples in bucket b (see bucketOf).
	counts [sketchBuckets]int64
}

const (
	// subBits is the per-octave resolution: 2^subBits sub-buckets per
	// power of two, giving a worst-case relative bucket width of
	// 1/2^subBits = 12.5%.
	subBits = 3
	// sketchBuckets covers 0ns .. >146h (2^59 ns) with the final bucket
	// absorbing anything larger.
	sketchBuckets = (59-subBits+1)<<subBits + (1 << (subBits + 1))
)

// sumOverflowNS is the value Add and Merge give SumNS when the exact sum
// would overflow int64.
const sumOverflowNS = int64(1)<<62 - 1

// bucketOf maps a nanosecond duration to its bucket index. Values below
// 2^(subBits+1) get exact unit buckets; above, the bucket is identified by
// (exponent, top subBits mantissa bits), so consecutive buckets differ by
// a factor of at most 1+2^-subBits.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < 1<<(subBits+1) {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= subBits+1
	shift := exp - subBits
	idx := shift<<subBits + int(v>>uint(shift))
	if idx >= sketchBuckets {
		return sketchBuckets - 1
	}
	return idx
}

// bucketLo returns the smallest nanosecond value mapping to bucket b.
func bucketLo(b int) int64 {
	if b < 1<<(subBits+1) {
		return int64(b)
	}
	shift := b>>subBits - 1
	top := b - shift<<subBits
	return int64(top) << uint(shift)
}

// bucketHi returns the largest nanosecond value mapping to bucket b.
func bucketHi(b int) int64 {
	if b >= sketchBuckets-1 {
		return int64(1)<<62 - 1
	}
	return bucketLo(b+1) - 1
}

// Add records one wait duration.
func (s *Sketch) Add(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	if s.Count == 0 || ns < s.MinNS {
		s.MinNS = ns
	}
	if ns > s.MaxNS {
		s.MaxNS = ns
	}
	s.Count++
	if sum := s.SumNS + ns; sum >= s.SumNS {
		s.SumNS = sum
	} else {
		s.SumNS = sumOverflowNS
	}
	s.counts[bucketOf(ns)]++
}

// Merge folds another sketch into this one. Counts add exactly, so
// Merge(a, b).Quantile is identical to the sketch built from a's and b's
// concatenated samples. A count that would overflow int64 is an error,
// and leaves s unchanged.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil || o.Count == 0 {
		return nil
	}
	m := *s
	if s.Count == 0 || o.MinNS < s.MinNS {
		m.MinNS = o.MinNS
	}
	if o.MaxNS > s.MaxNS {
		m.MaxNS = o.MaxNS
	}
	if sum := s.SumNS + o.SumNS; sum >= s.SumNS {
		m.SumNS = sum
	} else {
		m.SumNS = sumOverflowNS
	}
	if err := add(&m.Count, o.Count, "count"); err != nil {
		return err
	}
	for b, c := range o.counts {
		if err := add(&m.counts[b], c, "bucket count"); err != nil {
			return err
		}
	}
	*s = m
	return nil
}

// Quantile returns the q-quantile (nearest rank, matching the tracer's
// summary convention) as the midpoint of the bucket holding the ranked
// sample, clamped to the exact observed min/max. The exact sample quantile
// lies in the same bucket, so the estimate's relative error is bounded by
// the bucket width.
func (s *Sketch) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.Count-1)+0.5) + 1 // 1-based nearest rank
	if rank > s.Count {
		rank = s.Count
	}
	// The extreme ranks are tracked exactly; don't pay bucket error there.
	if rank == 1 {
		return time.Duration(s.MinNS)
	}
	if rank == s.Count {
		return time.Duration(s.MaxNS)
	}
	var cum int64
	for b, c := range s.counts {
		cum += c
		if cum >= rank {
			mid := bucketLo(b) + (bucketHi(b)-bucketLo(b))/2
			if mid < s.MinNS {
				mid = s.MinNS
			}
			if mid > s.MaxNS {
				mid = s.MaxNS
			}
			return time.Duration(mid)
		}
	}
	return time.Duration(s.MaxNS) // unreachable when counts are consistent
}

// Mean returns the exact mean wait.
func (s *Sketch) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// bucketPair is the sparse serialized form of one occupied bucket.
type bucketPair [2]int64

// MarshalJSON emits the sparse deterministic form:
// {"count":..,"sum_ns":..,"min_ns":..,"max_ns":..,"buckets":[[b,c],...]}
// with occupied buckets in ascending index order.
func (s Sketch) MarshalJSON() ([]byte, error) {
	var sb []byte
	sb = append(sb, '{')
	sb = append(sb, fmt.Sprintf(`"count":%d,"sum_ns":%d`, s.Count, s.SumNS)...)
	if s.Count > 0 {
		sb = append(sb, fmt.Sprintf(`,"min_ns":%d,"max_ns":%d`, s.MinNS, s.MaxNS)...)
	}
	sb = append(sb, `,"buckets":[`...)
	first := true
	for b, c := range s.counts {
		if c == 0 {
			continue
		}
		if !first {
			sb = append(sb, ',')
		}
		first = false
		sb = append(sb, fmt.Sprintf("[%d,%d]", b, c)...)
	}
	sb = append(sb, "]}"...)
	return sb, nil
}

// UnmarshalJSON parses the sparse form back into the dense array.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var raw struct {
		Count   int64        `json:"count"`
		SumNS   int64        `json:"sum_ns"`
		MinNS   int64        `json:"min_ns"`
		MaxNS   int64        `json:"max_ns"`
		Buckets []bucketPair `json:"buckets"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.Count < 0 {
		return fmt.Errorf("profile: sketch has negative count %d", raw.Count)
	}
	*s = Sketch{Count: raw.Count, SumNS: raw.SumNS, MinNS: raw.MinNS, MaxNS: raw.MaxNS}
	var total int64
	for _, bc := range raw.Buckets {
		b, c := bc[0], bc[1]
		if b < 0 || b >= sketchBuckets {
			return fmt.Errorf("profile: sketch bucket %d out of range [0,%d)", b, sketchBuckets)
		}
		if c < 0 {
			return fmt.Errorf("profile: sketch bucket %d has negative count %d", b, c)
		}
		if c > math.MaxInt64-total {
			return fmt.Errorf("profile: sketch bucket counts overflow int64")
		}
		s.counts[b] += c
		total += c
	}
	if total != raw.Count {
		return fmt.Errorf("profile: sketch bucket counts sum to %d, header says %d", total, raw.Count)
	}
	return nil
}
