package decomp

// Runtime partition arithmetic shared by the SPMD executor and the
// synchronization runtime: given concrete parameter values these functions
// materialize the symbolic ownership relations used by the compile-time
// analysis. Keeping both sides in one package guarantees the executor
// distributes iterations exactly the way the analysis assumed.

// BlockSize returns ceil(extent / nproc), the block side of the
// distribution; extent and nproc must be positive.
func BlockSize(extent int64, nproc int) int64 {
	n := int64(nproc)
	return (extent + n - 1) / n
}

// IterSlice returns the arithmetic sequence (start, end, step) of
// iterations in [lo, hi] owned by worker w, where iteration i owns
// coordinate x = i + off in a space of the given extent. The slice is
// empty when start > end.
func IterSlice(kind Kind, lo, hi, off, extent int64, w, nproc int) (start, end, step int64) {
	if kind == Cyclic {
		// x - 1 = i + off - 1 ≡ w (mod nproc)
		n := int64(nproc)
		rem := mod(int64(w)+1-off-lo, n)
		start = lo + rem
		return start, hi, n
	}
	b := BlockSize(extent, nproc)
	xlo := int64(w)*b + 1
	xhi := (int64(w) + 1) * b
	if xhi > extent {
		xhi = extent
	}
	start, end = xlo-off, xhi-off
	if start < lo {
		start = lo
	}
	if end > hi {
		end = hi
	}
	return start, end, 1
}

func mod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
