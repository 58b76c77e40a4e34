// Package exec executes compiled programs on the SPMD runtime: a fork-join
// baseline (dispatch + join barrier around every parallel loop, as SUIF
// emits before the paper's pass) and the optimized SPMD schedule produced
// by internal/syncopt. Both produce states comparable against the
// sequential interpreter, which is the repository's end-to-end correctness
// oracle: a synchronization the optimizer wrongly removed shows up as a
// wrong answer (and as a data race under `go test -race`).
package exec

import (
	"math"
	"sync/atomic"

	"repro/internal/interp"
)

// pstate is the shared storage of one parallel execution. Array elements
// are written by at most one worker between synchronizations (disjoint
// computation partitions) and read cross-worker only across happens-before
// edges created by the sync primitives. Scalars are kept as atomic bit
// patterns because replicated statements legitimately store the same value
// from every worker concurrently.
type pstate struct {
	params    map[string]int64
	arrays    map[string]*interp.ArrayVal
	scalarIdx map[string]int
	scalars   []atomic.Uint64
}

func newPState(st *interp.State) *pstate {
	ps := &pstate{
		params:    st.Params,
		arrays:    map[string]*interp.ArrayVal{},
		scalarIdx: map[string]int{},
	}
	for _, a := range st.Prog.Arrays {
		ps.arrays[a.Name] = st.Array(a.Name)
	}
	ps.scalars = make([]atomic.Uint64, len(st.Prog.Scalars))
	for i, s := range st.Prog.Scalars {
		ps.scalarIdx[s] = i
		ps.scalars[i].Store(math.Float64bits(st.Scalars[s]))
	}
	return ps
}

// flushTo copies scalar values back into the State map form.
func (ps *pstate) flushTo(st *interp.State) {
	for name, i := range ps.scalarIdx {
		st.Scalars[name] = math.Float64frombits(ps.scalars[i].Load())
	}
}

func (ps *pstate) loadScalar(i int) float64 {
	return math.Float64frombits(ps.scalars[i].Load())
}

func (ps *pstate) storeScalar(i int, v float64) {
	ps.scalars[i].Store(math.Float64bits(v))
}
