// Package interp provides program state (parameter bindings, array and
// scalar storage) and a sequential reference interpreter for ir programs.
// The parallel executors in internal/exec operate on the same State type,
// so their results can be compared element-for-element against the
// sequential semantics — the repository's core correctness oracle.
package interp

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// State holds the runtime storage of a program instance.
type State struct {
	Prog    *ir.Program
	Params  map[string]int64
	Scalars map[string]float64
	arrays  map[string]*ArrayVal
}

// ArrayVal is a dense float64 array with resolved extents. Subscripts are
// 1-based (Fortran convention) and laid out row-major.
type ArrayVal struct {
	Name string
	Dims []int64
	Data []float64
}

// NewState allocates storage for prog with the given parameter values.
// Every parameter must be bound; array extents must resolve to positive
// values.
func NewState(prog *ir.Program, params map[string]int64) (*State, error) {
	st := &State{
		Prog:    prog,
		Params:  make(map[string]int64, len(params)),
		Scalars: make(map[string]float64, len(prog.Scalars)),
		arrays:  make(map[string]*ArrayVal, len(prog.Arrays)),
	}
	for _, p := range prog.Params {
		v, ok := params[p]
		if !ok {
			return nil, fmt.Errorf("interp: parameter %s not bound", p)
		}
		st.Params[p] = v
	}
	for _, s := range prog.Scalars {
		st.Scalars[s] = 0
	}
	env := newEnv(st)
	for _, a := range prog.Arrays {
		dims := make([]int64, len(a.Dims))
		total := int64(1)
		for i, d := range a.Dims {
			v, err := env.evalInt(d)
			if err != nil {
				return nil, fmt.Errorf("interp: array %s extent: %w", a.Name, err)
			}
			if v <= 0 {
				return nil, fmt.Errorf("interp: array %s dimension %d is %d (must be positive)", a.Name, i+1, v)
			}
			dims[i] = v
			total *= v
			if total > 1<<30 {
				return nil, fmt.Errorf("interp: array %s too large (%d elements)", a.Name, total)
			}
		}
		st.arrays[a.Name] = &ArrayVal{Name: a.Name, Dims: dims, Data: make([]float64, total)}
	}
	return st, nil
}

// Array returns the storage of a named array, or nil.
func (st *State) Array(name string) *ArrayVal { return st.arrays[name] }

// Offset converts 1-based subscripts to a flat row-major offset. It
// returns an error when any subscript is out of bounds.
func (a *ArrayVal) Offset(subs []int64) (int64, error) {
	if len(subs) != len(a.Dims) {
		return 0, fmt.Errorf("array %s: %d subscripts for rank %d", a.Name, len(subs), len(a.Dims))
	}
	off := int64(0)
	for i, s := range subs {
		if s < 1 || s > a.Dims[i] {
			return 0, fmt.Errorf("array %s: subscript %d = %d out of bounds 1..%d", a.Name, i+1, s, a.Dims[i])
		}
		off = off*a.Dims[i] + (s - 1)
	}
	return off, nil
}

// SeedDeterministic fills every array with a deterministic pseudo-random
// pattern derived from the array name and element offset, and zeroes the
// scalars. Sequential and parallel executions seeded this way are
// bitwise-comparable.
func (st *State) SeedDeterministic() {
	for _, a := range st.arrays {
		h, data := fnv64(a.Name), a.Data
		for i := range data {
			x := splitmix64(h + uint64(i))
			// Map to (0,1): keep away from exact 0 to avoid division
			// hazards in kernels. x>>11 is below 2^53, so the conversion
			// is exact, and so is the scaling by a power of two.
			data[i] = (float64(int64(x>>11)) + 1) * 0x1p-53
		}
	}
	for k := range st.Scalars {
		st.Scalars[k] = 0
	}
}

// Checksum returns a digest of all array and scalar contents, useful as
// a cheap fingerprint in benchmarks. Summation follows sorted names:
// float addition is not associative, so map iteration order would
// otherwise leak into the low bits and break bitwise run-to-run
// comparison of checksums.
func (st *State) Checksum() float64 {
	names := make([]string, 0, len(st.arrays))
	for name := range st.arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	sum := 0.0
	for _, name := range names {
		for _, v := range st.arrays[name].Data {
			sum += v
		}
	}
	snames := make([]string, 0, len(st.Scalars))
	for name := range st.Scalars {
		snames = append(snames, name)
	}
	sort.Strings(snames)
	for _, name := range snames {
		sum += st.Scalars[name]
	}
	return sum
}

func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
