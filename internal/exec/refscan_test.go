package exec

// The reference inspector scan: the tree-walking scan that was
// internal/exec/inspect.go until PR 16 — one worker enumerates all W
// footprints of both sides of every pair into maps and intersects them —
// moved here unchanged (`scan`, `footprints`, `scanEnv`, and the
// `workerState.index` lookup only they used), so the compiled per-worker
// rows are compared against exactly the partner sets the executor used to
// wait on (CheckRows and RowsDetached in export_test.go).

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/ir"
	"repro/internal/linear"
	"repro/internal/region"
)

var errScanBudget = errors.New("inspector scan budget exhausted")

// index reads a loop index the walk itself drives.
func (ws *workerState) index(name string) (int64, bool) {
	reg, ok := ws.run.exe.Layout().IndexReg(name)
	if !ok {
		return 0, false
	}
	return ws.regs[reg], true
}

// scanOutcome is one scan's verdict: for each worker, the sorted source
// ranks it must wait on at this crossing.
type scanOutcome struct {
	partners     [][]int
	conservative bool
	conflicts    int64
}

// scan enumerates both sides of every pair and derives the wait edges:
// worker u waits on worker v when v's source footprint intersects u's
// destination footprint.
func (ws *workerState) scan(pairs []comm.InspectPair) *scanOutcome {
	W := ws.run.cfg.Workers
	budget := int64(scanBudget)
	edges := map[[2]int]bool{} // [dst u, src v]
	for _, p := range pairs {
		src, err := ws.footprints(p.Src, p.Carrier, 0, &budget)
		if err != nil {
			return conservativeOutcome(W)
		}
		dst, err := ws.footprints(p.Dst, p.Carrier, 1, &budget)
		if err != nil {
			return conservativeOutcome(W)
		}
		for u := 0; u < W; u++ {
			if dst[u] == nil {
				continue
			}
			for v := 0; v < W; v++ {
				if v == u || src[v] == nil || edges[[2]int{u, v}] {
					continue
				}
				small, big := dst[u], src[v]
				if len(big) < len(small) {
					small, big = big, small
				}
				for off := range small {
					if big[off] {
						edges[[2]int{u, v}] = true
						break
					}
				}
			}
		}
	}
	out := &scanOutcome{partners: make([][]int, W)}
	for e := range edges {
		out.partners[e[0]] = append(out.partners[e[0]], e[1])
		out.conflicts++
	}
	for u := range out.partners {
		sort.Ints(out.partners[u])
	}
	return out
}

// conservativeOutcome is the fallback wait set: everyone waits on everyone.
func conservativeOutcome(W int) *scanOutcome {
	out := &scanOutcome{conservative: true, partners: make([][]int, W)}
	for u := 0; u < W; u++ {
		for v := 0; v < W; v++ {
			if v != u {
				out.partners[u] = append(out.partners[u], v)
			}
		}
	}
	out.conflicts = int64(W) * int64(W-1)
	return out
}

// footprints enumerates the flat element offsets one side touches, per
// worker. A nil entry means that worker does not execute the side. For a
// carried pair the destination side executes in the next carrier iteration
// (delta 1), the source side in the current one (delta 0).
func (ws *workerState) footprints(s comm.InspectSide, carrier string, delta int64, budget *int64) ([]map[int64]bool, error) {
	W := ws.run.cfg.Workers
	arr := ws.run.ps.arrays[s.Ref.Name]
	if arr == nil {
		return nil, fmt.Errorf("inspector scan: unknown array %s", s.Ref.Name)
	}
	sc := &scanEnv{ws: ws, bind: map[string]int64{}}
	if carrier != "" {
		cv, ok := ws.index(carrier)
		if !ok {
			return nil, fmt.Errorf("inspector scan: carrier index %s not live", carrier)
		}
		sc.bind[carrier] = cv + delta
	}
	hasPar := false
	for _, l := range s.Chain {
		if l.Parallel {
			hasPar = true
		}
	}
	enum := func(w int) (map[int64]bool, error) {
		fp := map[int64]bool{}
		subs := make([]int64, len(s.Ref.Subs))
		var rec func(chain []*ir.Loop) error
		rec = func(chain []*ir.Loop) error {
			if len(chain) == 0 {
				*budget--
				if *budget < 0 {
					return errScanBudget
				}
				for i, sub := range s.Ref.Subs {
					v, err := sc.evalInt(sub)
					if err != nil {
						return err
					}
					subs[i] = v
				}
				off, err := arr.Offset(subs)
				if err != nil {
					return err
				}
				fp[off] = true
				return nil
			}
			l := chain[0]
			lo, err := sc.evalInt(l.Lo)
			if err != nil {
				return err
			}
			hi, err := sc.evalInt(l.Hi)
			if err != nil {
				return err
			}
			start, end, step := lo, hi, int64(1)
			if l.Parallel {
				pl := ws.run.plan.Placements[l]
				if pl == nil {
					return fmt.Errorf("inspector scan: no placement for loop %s", l.Index)
				}
				off, err := sc.affine(pl.Offset)
				if err != nil {
					return err
				}
				ext, err := sc.affine(pl.Space.Extent)
				if err != nil {
					return err
				}
				if ext < 1 || lo > hi {
					return nil
				}
				start, end, step = decomp.IterSlice(pl.Kind, lo, hi, off, ext, w, W)
				if step < 1 {
					return fmt.Errorf("inspector scan: non-positive slice step for loop %s", l.Index)
				}
			}
			for i := start; i <= end; i += step {
				sc.bind[l.Index] = i
				if err := rec(chain[1:]); err != nil {
					return err
				}
			}
			delete(sc.bind, l.Index)
			return nil
		}
		if err := rec(s.Chain); err != nil {
			return nil, err
		}
		return fp, nil
	}
	fps := make([]map[int64]bool, W)
	switch {
	case hasPar:
		for w := 0; w < W; w++ {
			fp, err := enum(w)
			if err != nil {
				return nil, err
			}
			if len(fp) > 0 {
				fps[w] = fp
			}
		}
	case s.Mode == region.ModeGuarded:
		fp, err := enum(0)
		if err != nil {
			return nil, err
		}
		if len(fp) > 0 {
			fps[0] = fp
		}
	default:
		// Replicated (and conservatively any other unplaced) execution:
		// every worker touches the same elements.
		fp, err := enum(0)
		if err != nil {
			return nil, err
		}
		if len(fp) > 0 {
			for w := 0; w < W; w++ {
				fps[w] = fp
			}
		}
	}
	return fps, nil
}

// scanEnv evaluates integer expressions for the inspector scan. It mirrors
// the interpreter's integer semantics (floor mod, exact-integer array
// elements and literals) but reads index arrays directly — scan reads are
// not data accesses of the program and are not reported to the sanitizer —
// and resolves free names through the scan bindings, then the worker's live
// loop indices, then the run parameters.
type scanEnv struct {
	ws   *workerState
	bind map[string]int64
}

func (sc *scanEnv) evalInt(x ir.Expr) (int64, error) {
	switch n := x.(type) {
	case *ir.Num:
		if n.IsInt {
			return n.Int, nil
		}
		if iv := int64(n.Val); float64(iv) == n.Val {
			return iv, nil
		}
		return 0, fmt.Errorf("%s: non-integral literal in inspector scan", n.P)
	case *ir.Ref:
		if n.IsArray() {
			arr := sc.ws.run.ps.arrays[n.Name]
			if arr == nil {
				return 0, fmt.Errorf("%s: unknown array %s", n.P, n.Name)
			}
			subs := make([]int64, len(n.Subs))
			for i, sub := range n.Subs {
				v, err := sc.evalInt(sub)
				if err != nil {
					return 0, err
				}
				subs[i] = v
			}
			off, err := arr.Offset(subs)
			if err != nil {
				return 0, err
			}
			v := arr.Data[off]
			iv := int64(v)
			if float64(iv) != v {
				return 0, fmt.Errorf("%s: array %s element = %v is not an integer", n.P, n.Name, v)
			}
			return iv, nil
		}
		if v, ok := sc.bind[n.Name]; ok {
			return v, nil
		}
		if v, ok := sc.ws.index(n.Name); ok {
			return v, nil
		}
		if v, ok := sc.ws.run.cfg.Params[n.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("%s: %s not resolvable in inspector scan", n.P, n.Name)
	case *ir.Unary:
		if n.Op != '-' {
			return 0, fmt.Errorf("%s: logical operator in inspector scan", n.P)
		}
		v, err := sc.evalInt(n.X)
		return -v, err
	case *ir.Bin:
		l, err := sc.evalInt(n.L)
		if err != nil {
			return 0, err
		}
		r, err := sc.evalInt(n.R)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case ir.Add:
			return l + r, nil
		case ir.Sub:
			return l - r, nil
		case ir.Mul:
			return l * r, nil
		default:
			// Division is excluded from scan-evaluability by the
			// irregular-access analysis; reaching it here degrades the
			// scan to the conservative wait set.
			return 0, fmt.Errorf("%s: operator %s in inspector scan", n.P, n.Op)
		}
	case *ir.Call:
		get2 := func() (int64, int64, error) {
			l, err := sc.evalInt(n.Args[0])
			if err != nil {
				return 0, 0, err
			}
			r, err := sc.evalInt(n.Args[1])
			return l, r, err
		}
		switch n.Name {
		case "mod":
			l, r, err := get2()
			if err != nil {
				return 0, err
			}
			if r == 0 {
				return 0, fmt.Errorf("%s: mod by zero in inspector scan", n.P)
			}
			m := l % r
			if m != 0 && (m < 0) != (r < 0) {
				m += r
			}
			return m, nil
		case "min", "max":
			l, r, err := get2()
			if err != nil {
				return 0, err
			}
			if (n.Name == "min") == (l < r) {
				return l, nil
			}
			return r, nil
		}
		return 0, fmt.Errorf("%s: intrinsic %s in inspector scan", n.P, n.Name)
	}
	return 0, fmt.Errorf("unsupported expression in inspector scan")
}

// affine evaluates a placement affine over scan bindings, live loop
// indices and parameters.
func (sc *scanEnv) affine(a linear.Affine) (int64, error) {
	v := a.Const
	for _, vr := range a.Vars() {
		var val int64
		switch vr.Kind {
		case linear.KindSymbolic:
			p, ok := sc.ws.run.cfg.Params[vr.Name]
			if !ok {
				return 0, fmt.Errorf("unbound parameter %s in inspector scan", vr.Name)
			}
			val = p
		case linear.KindLoop:
			if b, ok := sc.bind[vr.Name]; ok {
				val = b
			} else if lv, ok := sc.ws.index(vr.Name); ok {
				val = lv
			} else {
				return 0, fmt.Errorf("unbound loop index %s in inspector scan", vr.Name)
			}
		default:
			return 0, fmt.Errorf("unexpected variable %s in inspector scan", vr.Name)
		}
		v += a.Coeff(vr) * val
	}
	return v, nil
}
