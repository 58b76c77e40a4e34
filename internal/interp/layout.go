package interp

import "repro/internal/ir"

// Layout is the flat frame layout of one program: the slot numbering that
// the parallel executor's shared storage and the closure compiler's
// register frames agree on. Scalars get dense slots in declaration order
// (the numbering the executor has always used for its atomic scalar
// vector), arrays get dense ids in declaration order, and every symbolic
// parameter and loop index gets an integer register. Parameters and loop
// indices live in separate register namespaces because an index may shadow
// a parameter of the same name inside its loop without clobbering the
// parameter's value. Computing the layout once per program is what lets
// the closure backend replace per-iteration map[string]... lookups with
// direct slice indexing.
type Layout struct {
	scalarSlot map[string]int
	arrayID    map[string]int
	paramReg   map[string]int
	indexReg   map[string]int
	numRegs    int
}

// NewLayout computes the frame layout of prog.
func NewLayout(prog *ir.Program) *Layout {
	l := &Layout{
		scalarSlot: make(map[string]int, len(prog.Scalars)),
		arrayID:    make(map[string]int, len(prog.Arrays)),
		paramReg:   make(map[string]int, len(prog.Params)),
		indexReg:   map[string]int{},
	}
	for i, s := range prog.Scalars {
		l.scalarSlot[s] = i
	}
	for i, a := range prog.Arrays {
		l.arrayID[a.Name] = i
	}
	for _, p := range prog.Params {
		if _, ok := l.paramReg[p]; !ok {
			l.paramReg[p] = l.numRegs
			l.numRegs++
		}
	}
	ir.WalkStmts(prog.Body, func(s ir.Stmt) bool {
		if lp, ok := s.(*ir.Loop); ok {
			if _, ok := l.indexReg[lp.Index]; !ok {
				l.indexReg[lp.Index] = l.numRegs
				l.numRegs++
			}
		}
		return true
	})
	return l
}

// ScalarSlot returns the dense slot of a declared scalar.
func (l *Layout) ScalarSlot(name string) (int, bool) {
	i, ok := l.scalarSlot[name]
	return i, ok
}

// NumScalars returns the number of scalar slots.
func (l *Layout) NumScalars() int { return len(l.scalarSlot) }

// ArrayID returns the dense id of a declared array (its index in
// Program.Arrays).
func (l *Layout) ArrayID(name string) (int, bool) {
	i, ok := l.arrayID[name]
	return i, ok
}

// NumArrays returns the number of array ids.
func (l *Layout) NumArrays() int { return len(l.arrayID) }

// ParamReg returns the integer register holding a symbolic parameter.
func (l *Layout) ParamReg(name string) (int, bool) {
	i, ok := l.paramReg[name]
	return i, ok
}

// IndexReg returns the integer register of a loop index.
func (l *Layout) IndexReg(name string) (int, bool) {
	i, ok := l.indexReg[name]
	return i, ok
}

// NumRegs returns the total number of integer registers.
func (l *Layout) NumRegs() int { return l.numRegs }
