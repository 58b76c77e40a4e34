package linear

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Differential tests of the affine form: random sequences of Add, Sub,
// Scale, Substitute and AddConst against a map-based reference. After every
// operation each live value must be canonical (terms ascending in scan
// order, no zero coefficient) and agree with its reference on String and
// Eval, and Equal must hold exactly between values with equal references.
// Arithmetic wraps in both, so large coefficients are fair game.

// mapAffine is the reference: coefficients in a map, zeros deleted.
type mapAffine struct {
	m map[Var]int64
	c int64
}

func (r mapAffine) lin(k int64, s mapAffine) mapAffine {
	out := mapAffine{m: map[Var]int64{}, c: r.c + k*s.c}
	for v, x := range r.m {
		out.m[v] = x
	}
	for v, x := range s.m {
		if out.m[v] += k * x; out.m[v] == 0 {
			delete(out.m, v)
		}
	}
	return out
}

func (r mapAffine) subst(v Var, repl mapAffine) mapAffine {
	c, ok := r.m[v]
	if !ok {
		return r
	}
	out := r.lin(-c, mapAffine{m: map[Var]int64{v: 1}})
	return out.lin(c, repl)
}

func (r mapAffine) eval(env map[Var]int64) int64 {
	s := r.c
	for v, x := range r.m {
		s += x * env[v]
	}
	return s
}

// String renders in the documented form: kinds in scan order, then names.
func (r mapAffine) String() string {
	vs := make([]Var, 0, len(r.m))
	for v := range r.m {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Kind != vs[j].Kind {
			return vs[i].Kind < vs[j].Kind
		}
		return vs[i].Name < vs[j].Name
	})
	var parts []string
	for i, v := range vs {
		switch x := r.m[v]; {
		case i == 0 && x == 1:
			parts = append(parts, v.Name)
		case i == 0 && x == -1:
			parts = append(parts, "-"+v.Name)
		case i == 0:
			parts = append(parts, fmt.Sprintf("%d*%s", x, v.Name))
		case x == 1:
			parts = append(parts, " + "+v.Name)
		case x == -1:
			parts = append(parts, " - "+v.Name)
		case x > 0:
			parts = append(parts, fmt.Sprintf(" + %d*%s", x, v.Name))
		default:
			parts = append(parts, fmt.Sprintf(" - %d*%s", -x, v.Name))
		}
	}
	switch {
	case len(vs) == 0:
		return fmt.Sprint(r.c)
	case r.c > 0:
		parts = append(parts, fmt.Sprintf(" + %d", r.c))
	case r.c < 0:
		parts = append(parts, fmt.Sprintf(" - %d", -r.c))
	}
	return strings.Join(parts, "")
}

// affineVars mixes kinds and shares names across kinds, so the scan order
// is not the name order.
var affineVars = []Var{Sym("N"), Sym("M"), Proc("u"), Loop("i"), Loop("N"), Loop("j"), Arr("a"), Arr("i")}

// checkCanonical requires terms ascending in scan order with no zero.
func checkCanonical(t *testing.T, a Affine) {
	t.Helper()
	for i, x := range a.terms {
		if x.k == 0 || i > 0 && cmpVar(a.terms[i-1].v, x.v) >= 0 {
			t.Fatalf("not canonical: %+v", a.terms)
		}
	}
}

// checkAffineOps decodes data into operations on a pool of four values and
// checks every value after every operation.
func checkAffineOps(t *testing.T, data []byte) {
	r := &byteReader{data: data}
	coeff := func() int64 {
		k := int64(int8(r.next()))
		if r.next()%8 == 0 {
			k <<= 40 // products of these wrap
		}
		return k
	}
	var pool [4]Affine
	var ref [4]mapAffine
	for i := range ref {
		ref[i] = mapAffine{m: map[Var]int64{}}
	}
	envs := make([]map[Var]int64, 2)
	for e := range envs {
		envs[e] = map[Var]int64{}
		for _, v := range affineVars {
			envs[e][v] = int64(r.next()) - 128
		}
	}
	for steps := 1 + r.next()%24; steps > 0; steps-- {
		op, d, s := r.next()%6, r.next()%4, r.next()%4
		v := affineVars[r.next()%len(affineVars)]
		var name string
		switch op {
		case 0:
			name, pool[d], ref[d] = "Add", pool[d].Add(pool[s]), ref[d].lin(1, ref[s])
		case 1:
			name, pool[d], ref[d] = "Sub", pool[d].Sub(pool[s]), ref[d].lin(-1, ref[s])
		case 2:
			k := coeff()
			name, pool[d], ref[d] = fmt.Sprintf("Scale(%d)", k), pool[d].Scale(k), mapAffine{m: map[Var]int64{}}.lin(k, ref[d])
		case 3:
			name, pool[d], ref[d] = "Substitute("+v.Name+")", pool[d].Substitute(v, pool[s]), ref[d].subst(v, ref[s])
		case 4:
			k := coeff()
			name, pool[d], ref[d] = fmt.Sprintf("AddConst(%d)", k), pool[d].AddConst(k), ref[d].lin(k, mapAffine{c: 1})
		default:
			k := coeff()
			name, pool[d], ref[d] = "Term", Term(v, k), mapAffine{m: map[Var]int64{}}.lin(k, mapAffine{m: map[Var]int64{v: 1}})
		}
		// Every slot, not just d: an operation must not write its operands.
		for i := range pool {
			checkCanonical(t, pool[i])
			if got, want := pool[i].String(), ref[i].String(); got != want {
				t.Fatalf("after %s into %d: value %d = %q, reference %q", name, d, i, got, want)
			}
			if pool[i].NumTerms() != len(ref[i].m) {
				t.Fatalf("value %d: NumTerms %d, reference %d", i, pool[i].NumTerms(), len(ref[i].m))
			}
			for _, env := range envs {
				if got, want := pool[i].Eval(env), ref[i].eval(env); got != want {
					t.Fatalf("value %d = %v: Eval %d, reference %d", i, pool[i], got, want)
				}
			}
			// Not equal Strings: Sym("N") and Loop("N") both print as N.
			for j := range pool {
				if eq, same := pool[i].Equal(pool[j]), ref[i].c == ref[j].c && maps.Equal(ref[i].m, ref[j].m); eq != same {
					t.Fatalf("Equal(%v, %v) = %v with references equal %v", pool[i], pool[j], eq, same)
				}
			}
		}
	}
}

func TestAffineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 16+rng.Intn(120))
		rng.Read(data)
		checkAffineOps(t, data)
	}
}

func FuzzAffine(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(checkAffineOps)
}
