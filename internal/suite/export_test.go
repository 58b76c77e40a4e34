package suite

// Pct is the delta as a percentage of A's median (0 when A measured
// nothing, e.g. the sync wait of a one-worker run).
func (c Comparison) Pct() float64 {
	if c.MedianA == 0 {
		return 0
	}
	return 100 * float64(c.Delta) / float64(c.MedianA)
}
