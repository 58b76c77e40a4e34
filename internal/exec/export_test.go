package exec

import (
	"sync"

	"repro/internal/compile"
)

// UseReferenceEngine makes r's workers run the tree-walking reference
// engine (ref_test.go) instead of the closure frame. The schedule walk,
// the runtime and the storage are shared; only the statement engine
// differs, which is what the parity gate and the fuzzer compare.
func UseReferenceEngine(r *Runner) { r.newEngine = newRefEngine }

// RecordFallbacks makes r keep the closure frame of every worker it binds
// and returns the sum of their compile.Frame.Fallbacks — read it after the
// run has returned, when the workers are done with the frames.
func RecordFallbacks(r *Runner) (total func() int64) {
	var mu sync.Mutex
	var frames []*compile.Frame
	bind := r.newEngine
	r.newEngine = func(run *teamRun, w int) engine {
		e := bind(run, w)
		if fe, ok := e.(*frameEngine); ok {
			mu.Lock()
			frames = append(frames, fe.fr)
			mu.Unlock()
		}
		return e
	}
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		var n int64
		for _, fr := range frames {
			n += fr.Fallbacks
		}
		return n
	}
}
