package certify

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/linear"
)

// Witness is a concrete counterexample instance of an unordered flow: a
// parameter valuation, a distinct processor pair (block origins and ranks),
// both iteration vectors, and the array element that moves between them.
// It is extracted by bounded integer enumeration over the flow's own
// feasibility system, so it is a genuine integer solution, not a rational
// relaxation artifact.
type Witness struct {
	Params    map[string]int64 `json:"params"`
	BlockSize int64            `json:"block_size"`
	// Producer/Consumer are block origins (u = rank*B).
	Producer     int64            `json:"producer_origin"`
	Consumer     int64            `json:"consumer_origin"`
	ProducerRank int64            `json:"producer_rank"`
	ConsumerRank int64            `json:"consumer_rank"`
	ProducerIter map[string]int64 `json:"producer_iter,omitempty"`
	ConsumerIter map[string]int64 `json:"consumer_iter,omitempty"`
	Array        string           `json:"array,omitempty"`
	Element      []int64          `json:"element,omitempty"`
}

func (w *Witness) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s, B=%d: processor %d (origin %d) -> processor %d (origin %d)",
		mapString(w.Params), w.BlockSize, w.ProducerRank, w.Producer, w.ConsumerRank, w.Consumer)
	if w.Array != "" && len(w.Element) > 0 {
		elems := make([]string, len(w.Element))
		for i, e := range w.Element {
			elems[i] = fmt.Sprintf("%d", e)
		}
		fmt.Fprintf(&sb, ", element %s(%s)", w.Array, strings.Join(elems, ","))
	} else if w.Array != "" {
		fmt.Fprintf(&sb, ", data %s", w.Array)
	}
	if len(w.ProducerIter) > 0 {
		fmt.Fprintf(&sb, ", producer at %s", mapString(w.ProducerIter))
	}
	if len(w.ConsumerIter) > 0 {
		fmt.Fprintf(&sb, ", consumer at %s", mapString(w.ConsumerIter))
	}
	return sb.String()
}

func mapString(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}

// witnessFor extracts a concrete communicating instance from a flow's
// representative access-pair systems (nil when the flow was forced by a
// non-affine or incomparable construct that has no system, or when the
// search box holds no small instance).
func witnessFor(prog interface{ IsParam(string) bool }, f *Flow) *Witness {
	rep := f.rep
	if rep == nil {
		return nil
	}
	for _, sys := range []*linear.System{rep.upSys, rep.downSys} {
		if sys == nil {
			continue
		}
		pt, res := sys.Enumerate(linear.EnumOptions{SymbolicRange: [2]int64{1, 8}})
		if res != linear.EnumPoint {
			continue
		}
		w := &Witness{
			Params:       map[string]int64{},
			BlockSize:    pt[blockVar],
			Producer:     pt[rep.u1],
			Consumer:     pt[rep.u2],
			ProducerIter: map[string]int64{},
			ConsumerIter: map[string]int64{},
			Array:        rep.array,
		}
		if w.BlockSize > 0 {
			w.ProducerRank = w.Producer / w.BlockSize
			w.ConsumerRank = w.Consumer / w.BlockSize
		}
		for v, val := range pt {
			if v.Kind == linear.KindSymbolic && v != blockVar && prog.IsParam(v.Name) {
				w.Params[v.Name] = val
			}
		}
		for name, v := range rep.prodIdx {
			if _, bound := pt[v]; bound {
				w.ProducerIter[name] = pt[v]
			}
		}
		for name, v := range rep.consIdx {
			if _, bound := pt[v]; bound {
				w.ConsumerIter[name] = pt[v]
			}
		}
		for _, sub := range rep.subs {
			w.Element = append(w.Element, sub.Eval(pt))
		}
		return w
	}
	return nil
}
