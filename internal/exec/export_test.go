package exec

// UseReferenceEngine makes r's workers run the tree-walking reference
// engine (ref_test.go) instead of the closure frame. The schedule walk,
// the runtime and the storage are shared; only the statement engine
// differs, which is what the parity gate and the fuzzer compare.
func UseReferenceEngine(r *Runner) { r.newEngine = newRefEngine }
