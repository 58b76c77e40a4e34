package remarks

import (
	"fmt"
	"time"
)

// ProfilePrior is the measured cost prior the feedback-directed optimizer
// distilled from a prior run's profile for one sync site: the evidence a
// flip decision cites. Durations are nanoseconds so the remark JSON stays
// integer-exact.
type ProfilePrior struct {
	// Runs is how many runs the prior aggregates.
	Runs int `json:"runs"`
	// Ops is the site's dynamic sync-operation count per run.
	Ops int64 `json:"ops"`
	// Waits is the number of blocking waits the sketch recorded.
	Waits int64 `json:"waits"`
	// MeanNS/P50NS/P99NS summarize the site's blocking-wait distribution.
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	// Share is the site's fraction of whole-program blocking wait.
	Share float64 `json:"share"`
	// SlackShare (barrier sites) is the fraction of the site's wait
	// attributable to arrival imbalance rather than the primitive itself.
	SlackShare float64 `json:"slack_share,omitempty"`
	// Straggler/StragglerShare (barrier sites) name the worker most often
	// last to arrive and how often.
	Straggler      int     `json:"straggler,omitempty"`
	StragglerShare float64 `json:"straggler_share,omitempty"`
}

// FDORemark records a feedback-directed re-optimization of one sync site:
// what the static schedule had, what the measured profile justified, and
// the predicted saving. It rides on the site's optimization remark so
// `barrierc -fdo -remarks` explains every flip from its evidence.
type FDORemark struct {
	// From is the statically-chosen primitive this site had before the
	// feedback pass.
	From string `json:"from"`
	// Action is "weaken" (cheaper primitive re-certified) or "promote"
	// (measured-slow primitive strengthened).
	Action string `json:"action"`
	// Reason is the one-line justification citing the measurements.
	Reason string `json:"reason"`
	// Prior is the measured cost prior behind the decision.
	Prior ProfilePrior `json:"prior"`
	// PredictedSaveNS is the per-run wait saving the cost priors predict
	// for the flip.
	PredictedSaveNS int64 `json:"predicted_save_ns,omitempty"`
}

func (f *FDORemark) String() string {
	s := fmt.Sprintf("fdo: %s from %s (%s; prior p50=%s p99=%s share=%.0f%% over %d run(s))",
		f.Action, f.From, f.Reason,
		time.Duration(f.Prior.P50NS), time.Duration(f.Prior.P99NS),
		f.Prior.Share*100, f.Prior.Runs)
	if f.PredictedSaveNS > 0 {
		s += fmt.Sprintf(", predicted save %s/run", time.Duration(f.PredictedSaveNS))
	}
	return s
}
