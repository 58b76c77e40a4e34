// Package compile is the closure-compilation backend of the executor: it
// lowers each IR statement and expression ONCE into Go closures over a
// flat register frame, so the per-iteration hot path runs with
// pre-resolved array bases and strides, integer register slots for loop
// indices and parameters, and dense scalar slots — no maps, no string
// lookups, and no error allocation per iteration. Runtime faults (bounds
// violations, division by zero) are recorded in a per-worker fault slot
// that the executor checks at statement and synchronization boundaries.
//
// The tree-walking interpreter (internal/interp, and its parallel twin in
// internal/exec's test files) remains the reference semantics; this
// package mirrors it operation for operation and is differentially tested
// against it.
package compile

import (
	"math"
	"strconv"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/sanitize"
)

// Fault describes one potential runtime fault site. Every fault a lowered
// program can raise is built at compile time, so tripping one on the hot
// path stores two words and allocates nothing.
type Fault struct {
	// Pos is the source position of the faulting expression.
	Pos ir.Pos
	// Msg is the static description. For faults that record an offending
	// value (out-of-range subscripts), Suffix follows the value.
	Msg     string
	Suffix  string
	hasVal  bool
	isFloat bool // the value is a float64's bits, printed as the interpreter does
}

func boundsFault(array string, sub int, pos ir.Pos) *Fault {
	return &Fault{
		Pos:    pos,
		Msg:    "array " + array + ": subscript " + strconv.Itoa(sub) + " =",
		Suffix: " out of bounds",
		hasVal: true,
	}
}

func divFault(pos ir.Pos) *Fault { return &Fault{Pos: pos, Msg: "integer division by zero"} }
func modFault(pos ir.Pos) *Fault { return &Fault{Pos: pos, Msg: "mod by zero"} }

// nonIntFault marks an indirect access whose index-array element does
// not hold an exact integer. The recorded value is the element's bits, so
// the text is the interpreter's.
func nonIntFault(array string, pos ir.Pos) *Fault {
	return &Fault{
		Pos:     pos,
		Msg:     "array " + array + " element =",
		Suffix:  " is not an integer subscript value",
		hasVal:  true,
		isFloat: true,
	}
}

// faultError is the error form of a tripped fault.
type faultError struct {
	f   *Fault
	val int64
}

func (e *faultError) Error() string {
	s := e.f.Pos.String() + ": " + e.f.Msg
	switch {
	case e.f.isFloat:
		s += " " + strconv.FormatFloat(math.Float64frombits(uint64(e.val)), 'g', -1, 64) + e.f.Suffix
	case e.f.hasVal:
		s += " " + strconv.FormatInt(e.val, 10) + e.f.Suffix
	}
	return s
}

// Frame is one worker's execution frame: the storage the lowered closures
// index directly. The executor builds one frame per worker per run, binds
// the shared storage into it, and seeds the parameter registers.
type Frame struct {
	// Regs holds integer registers: symbolic parameters (seeded once per
	// run) and loop indices (written by loop drivers).
	Regs []int64
	// Priv redirects scalar slots to worker-local cells — privatized loop
	// temporaries, reduction partials and replicated scalars. A nil entry
	// means the slot is shared.
	Priv []*float64
	// Scal is the shared scalar vector (atomic float64 bit patterns),
	// aliasing the executor's storage; slot order is declaration order.
	Scal []atomic.Uint64
	// Arrays and Dims are the pre-resolved array base slices and extents,
	// indexed by array id (declaration order).
	Arrays [][]float64
	Dims   [][]int64

	// San receives every shared access when the program was lowered with
	// Options.Instrument (closures then call it unconditionally); SanW is
	// this worker's rank and SanRepl marks replicated-mode execution.
	// Sites maps each statement ordinal (Prog.Ordinal) to the tracker's
	// interned site id for that statement; instrumented statement closures
	// load their site from it at entry.
	San     *sanitize.Tracker
	SanW    int
	SanRepl bool
	Sites   []uint16
	sanSite uint16

	// cur holds one cursor per affine array reference of an innermost
	// loop (Prog.Range): the array's data and the base/stride that turn the
	// loop index into a flat offset. A loop entry's prologue fills the
	// cursors of its own loop after range-checking them; the body then
	// indexes through them with no per-access check.
	cur []cursor
	// Fallbacks counts loop entries whose hoisted range check failed, so
	// the entry ran the per-access-checked body instead. It is bumped on
	// that slow path only; tests read it to see which path ran.
	Fallbacks int64
	// Rows counts loop entries that ran in row form (row.go), for tests to
	// see which form ran; scr holds their scratch (rowScratch), the
	// program's from the first entry that needs it until Prog.Release.
	Rows int64
	scr  *rowScratch
	// Checks counts cursor range checks (curRef.enter): one per cursor of a
	// block of an entry plan's rows that ran them (plan.rangeFn).
	Checks int64

	// cells hold the private and reduction scalars of the annotated loops
	// a sequential run's entry nests (cellLoop), and old the redirections
	// they replaced.
	cells []float64
	old   []*float64
	// stop, when set, aborts a sequential run (Prog.RunSeq) at the next
	// loop entry or block of a nest's rows that polls it (stopped).
	stop *atomic.Bool

	fault    *Fault
	faultVal int64
}

// cursor addresses one affine reference for the duration of one loop
// entry: element i of the loop reads or writes data[base+i*stride].
type cursor struct {
	data         []float64
	base, stride int64
}

// trip records a fault; the first fault wins, later ones are dropped.
func (fr *Frame) trip(f *Fault, val int64) {
	if fr.fault == nil {
		fr.fault = f
		fr.faultVal = val
	}
}

// stopFault is what a set stop flag trips.
var stopFault = &Fault{Msg: "run stopped"}

// stopped polls the frame's stop flag. Once it is set, stopped trips a
// fault (unless one is already recorded), so every statement sequence and
// loop driver returns at its next check; the caller that set the flag knows
// why and reports that instead.
func (fr *Frame) stopped() bool {
	if fr.stop != nil && fr.stop.Load() {
		fr.trip(stopFault, 0)
		return true
	}
	return false
}

// Ok reports whether the frame is fault-free. It is cheap enough to check
// per iteration.
func (fr *Frame) Ok() bool { return fr.fault == nil }

// Err returns the recorded fault as an error, or nil.
func (fr *Frame) Err() error {
	if fr.fault == nil {
		return nil
	}
	return &faultError{f: fr.fault, val: fr.faultVal}
}

// FaultMark snapshots the fault slot so a caller can probe closures (for
// example the executor's activity estimates, which the interpreter treats
// as conservative rather than fatal) without committing a fault tripped
// during the probe. Restore with FaultRestore.
func (fr *Frame) FaultMark() (*Fault, int64) { return fr.fault, fr.faultVal }

// FaultRestore resets the fault slot to a FaultMark snapshot.
func (fr *Frame) FaultRestore(f *Fault, val int64) { fr.fault, fr.faultVal = f, val }
