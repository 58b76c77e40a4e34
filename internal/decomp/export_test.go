package decomp

// OwnerOf returns the worker that owns coordinate x (1-based) of a space
// with the given extent, IterSlice's property oracle. Coordinates outside
// 1..extent are clamped into the valid worker range so callers can probe
// boundary arithmetic safely.
func OwnerOf(kind Kind, x, extent int64, nproc int) int {
	if x < 1 {
		x = 1
	}
	if x > extent {
		x = extent
	}
	if kind == Cyclic {
		return int((x - 1) % int64(nproc))
	}
	b := BlockSize(extent, nproc)
	w := int((x - 1) / b)
	if w >= nproc {
		w = nproc - 1
	}
	return w
}
