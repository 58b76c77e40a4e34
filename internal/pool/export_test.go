package pool

// Stats is a point-in-time snapshot of the pool counters.
type Stats struct {
	// Checkouts = Reuses + ColdBuilds.
	Checkouts  int64
	Reuses     int64
	ColdBuilds int64
	// Live counts existing teams (parked + leased), Idle the parked ones.
	Live int64
	Idle int64
}

// Snapshot reads the counters, the pool's test hook: Checkout and Release
// keep them, and only tests read them.
func (p *Pool) Snapshot() Stats {
	var idle int64
	p.mu.Lock()
	for _, q := range p.idle {
		idle += int64(len(q))
	}
	p.mu.Unlock()
	reuses, cold := p.reuses.Load(), p.coldBuilds.Load()
	return Stats{
		Checkouts:  reuses + cold,
		Reuses:     reuses,
		ColdBuilds: cold,
		Live:       p.live.Load(),
		Idle:       idle,
	}
}
