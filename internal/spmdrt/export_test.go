package spmdrt

// SlowWorker returns the designated straggler's rank, or -1 for nil.
func (c *Chaos) SlowWorker() int {
	if c == nil {
		return -1
	}
	return c.slow
}
