package exec

import (
	"fmt"
	"time"

	"repro/internal/costsim"
)

// WidthDecision is how many workers a Runner's runs lease out of the
// configured P, and why. NewRunner makes it once, when the parameters and
// P are bound: the closed-form estimate of one run (costsim.EstimateRun)
// priced by costsim.HostTable on one worker and on P, and one worker where
// that is predicted faster by the table's Margin. At a grain where an
// episode costs more than the compute the other workers take, it is.
//
// Narrowing needs no new proof. With one worker no value crosses workers,
// so a narrowed run needs no synchronization at all: unless it is traced,
// it runs the closure program sequentially with no team (seq.go), and
// leaves the state a one-worker team of the same schedule leaves, bit for
// bit. Where the
// estimate cannot price a run — an inspector site, a bound read from an
// index array, a cyclic placement — the width stays P.
type WidthDecision struct {
	// P is Config.Workers and W the width runs lease: 1 or P.
	P, W int
	// Fixed says why W is P without a comparison ("" when the estimate
	// chose W).
	Fixed string
	// Est is the estimate the choice was made on (zero when Fixed).
	Est costsim.Estimate
}

// String reads, e.g., "P=2 width=1 (predicted 949µs on one worker, 4.08ms
// on 2)", or says why the width is fixed.
func (d WidthDecision) String() string {
	head := fmt.Sprintf("P=%d width=%d", d.P, d.W)
	switch {
	case d.Fixed != "":
		return head + " (fixed: " + d.Fixed + ")"
	case d.P == 1:
		return head
	}
	t := costsim.HostTable
	return fmt.Sprintf("%s (predicted %s on one worker, %s on %d)", head,
		ns(t.MakespanNS(d.Est, 1)), ns(t.MakespanNS(d.Est, d.P)), d.P)
}

// ns renders a nanosecond count as a duration to three significant digits.
func ns(v float64) string {
	d, unit := time.Duration(v), time.Duration(1)
	for d/unit >= 1000 {
		unit *= 10
	}
	return d.Round(unit).String()
}

// decideWidth chooses r's width (see WidthDecision).
func (r *Runner) decideWidth() WidthDecision {
	cfg := r.cfg
	d := WidthDecision{P: cfg.Workers, W: cfg.Workers}
	switch {
	case cfg.FixedWidth:
		d.Fixed = "FixedWidth"
	case cfg.Sanitize:
		d.Fixed = "sanitizer"
	case cfg.ChaosSeed != 0:
		d.Fixed = "chaos"
	case cfg.SabotageEdge > 0:
		d.Fixed = "sabotage"
	}
	if d.Fixed != "" || d.P == 1 {
		return d
	}
	est, err := costsim.EstimateRun(r.low, r.plan, r.prog, cfg.Params)
	if err != nil {
		d.Fixed = err.Error()
		return d
	}
	d.Est, d.W = est, costsim.HostTable.Width(est, d.P)
	return d
}
