package interp

import "math"

// Fnv64 and Splitmix64 are the hashes SeedDeterministic draws from, for the
// external tests to spell out the formula it replaced.
var Fnv64, Splitmix64 = fnv64, splitmix64

// MaxAbsDiff returns the largest absolute elementwise difference between
// the arrays and scalars of two states, for output comparison. States must
// come from the same program/params; mismatched shapes return +Inf.
func (st *State) MaxAbsDiff(other *State) float64 {
	worst := 0.0
	for name, a := range st.arrays {
		b := other.arrays[name]
		if b == nil || len(b.Data) != len(a.Data) {
			return math.Inf(1)
		}
		for i := range a.Data {
			d := math.Abs(a.Data[i] - b.Data[i])
			if d > worst {
				worst = d
			}
		}
	}
	for name, v := range st.Scalars {
		d := math.Abs(v - other.Scalars[name])
		if d > worst {
			worst = d
		}
	}
	return worst
}
