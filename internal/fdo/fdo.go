// Package fdo is the feedback-directed re-optimization pass: it ingests a
// prior run's durable sync profile (internal/profile) and re-visits the
// static schedule's per-site decisions with measured cost priors in hand.
//
// The static pass (internal/syncopt) ranks primitives by a fixed cost
// ladder (none < neighbor < counter < inspector < barrier) and
// conservatively strengthens boundaries whose combined direct+earlier
// flows it cannot order with one cheap primitive. The feedback pass gets
// two things the static pass lacks: measured per-site wait distributions
// (which sites actually cost something), and an independent per-flow
// happens-before certifier (which mutations are actually safe). For every
// site whose measured wait justifies the attempt, it re-ranks the site's
// rejected-alternatives ladder by measured kind-cost priors, retries the
// cheaper primitives, and keeps the first candidate the certifier
// re-proves — or, symmetrically, strengthens a primitive that measured
// slower than a barrier would. Every flip records its profile evidence on
// the boundary (remarks.FDORemark) so `barrierc -fdo -remarks` explains
// itself.
//
// The package deliberately does not import the certifier: the caller
// injects a CheckFunc (internal/core builds one from certify.Analyze), so
// fdo stays a pure schedule→schedule transform and tests can inject
// permissive or rejecting checkers.
package fdo

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/profile"
	"repro/internal/remarks"
	"repro/internal/syncopt"
)

// CheckFunc reports whether a mutated schedule is provably safe. core
// wires this to an independent certify.Analysis re-check; a nil CheckFunc
// rejects every mutation (fail closed).
type CheckFunc func(*syncopt.Schedule) (bool, error)

// The feedback pass's flip thresholds. They encode hysteresis in both
// directions — weakenings must be predicted clearly profitable and
// promotions must be measured clearly pathological — so a second feedback
// iteration over the re-optimized schedule's own profile reaches a fixed
// point instead of oscillating.
const (
	// minWaits is the minimum number of recorded blocking waits at a site
	// before its measurements are trusted.
	minWaits = 1
	// minShare is the minimum fraction of whole-program wait a site must
	// carry before a weakening is attempted.
	minShare = 0.01
	// weakenFactor gates weakening: the candidate's estimated per-op cost
	// must be below measured × weakenFactor.
	weakenFactor = 0.75
	// promoteFactor and promoteShare gate strengthening: a non-barrier
	// site is promoted to a barrier only when its measured per-op wait is
	// at least promoteFactor × the measured barrier cost prior AND its
	// wait share is at least promoteShare.
	promoteFactor = 4
	promoteShare  = 0.25
)

// Decision records one site-level outcome of the feedback pass, flips and
// rejections alike, in the order the pass visited them (descending
// measured wait, site id as tiebreak).
type Decision struct {
	Site int `json:"site"`
	// Action is "weaken", "promote", or "reject".
	Action string `json:"action"`
	// From/To are primitive spellings (remarks.Prim*).
	From string `json:"from"`
	To   string `json:"to,omitempty"`
	// Reason justifies the action (or the rejection).
	Reason string `json:"reason"`
	// Prior is the measured evidence the decision cites.
	Prior remarks.ProfilePrior `json:"prior"`
	// PredictedSaveNS is the per-run wait saving the cost priors predict.
	PredictedSaveNS int64 `json:"predicted_save_ns,omitempty"`
	// Certified reports whether the certifier re-proved the mutation
	// (always true for kept flips; false on "reject" when certification
	// was the blocker).
	Certified bool `json:"certified"`
}

// Result is the feedback pass's outcome: the re-optimized schedule (a
// clone; the input schedule is untouched) and the per-site decision log.
type Result struct {
	Schedule  *syncopt.Schedule `json:"-"`
	Decisions []Decision        `json:"decisions,omitempty"`
	// Flips counts schedule-changing decisions (weaken + promote).
	Flips int `json:"flips"`
	// PredictedSaveNS sums the per-run savings predicted for all flips.
	PredictedSaveNS int64 `json:"predicted_save_ns,omitempty"`
}

// classFor maps a primitive spelling back to its sync class.
var classFor = map[string]comm.Class{
	remarks.PrimNone:      comm.ClassNone,
	remarks.PrimNeighbor:  comm.ClassNeighbor,
	remarks.PrimCounter:   comm.ClassCounter,
	remarks.PrimInspector: comm.ClassInspector,
	remarks.PrimBarrier:   comm.ClassBarrier,
}

// fallbackFraction estimates a candidate primitive's per-op cost as a
// fraction of the measured cost it would replace, used only when the
// profile has no measured sites of the candidate's kind. The fractions
// restate the static ladder in relative terms; measured priors override
// them whenever available — that override is the ladder "re-ranking".
var fallbackFraction = map[string]float64{
	remarks.PrimNone:      0,
	remarks.PrimNeighbor:  0.25,
	remarks.PrimCounter:   0.35,
	remarks.PrimInspector: 0.8,
}

// kindCosts builds the measured per-op cost prior for each primitive kind
// present in the profile: total blocking wait over total ops across that
// kind's sites. This is what re-ranks the rejected-alternatives ladder —
// a kind that measured expensive in this program loses its static rank.
func kindCosts(p *profile.Profile) map[string]float64 {
	ops := map[string]int64{}
	wait := map[string]int64{}
	for i := range p.Sites {
		s := &p.Sites[i]
		ops[s.Kind] += s.Ops
		wait[s.Kind] += s.Wait.SumNS
	}
	out := map[string]float64{}
	for k, o := range ops {
		if o > 0 {
			out[k] = float64(wait[k]) / float64(o)
		}
	}
	return out
}

// prior distills one site's measured record into the evidence a decision
// cites.
func prior(p *profile.Profile, s *profile.SiteProfile, totalWaitNS int64) remarks.ProfilePrior {
	pr := remarks.ProfilePrior{
		Runs:   p.Runs,
		Waits:  s.Wait.Count,
		MeanNS: int64(s.Wait.Mean()),
		P50NS:  int64(s.Wait.Quantile(0.5)),
		P99NS:  int64(s.Wait.Quantile(0.99)),
	}
	if p.Runs > 0 {
		pr.Ops = s.Ops / int64(p.Runs)
	}
	if totalWaitNS > 0 {
		pr.Share = float64(s.Wait.SumNS) / float64(totalWaitNS)
	}
	if s.Episodes > 0 && s.Wait.SumNS > 0 {
		slack := s.SlackSumNS
		if slack > s.Wait.SumNS {
			slack = s.Wait.SumNS
		}
		pr.SlackShare = float64(slack) / float64(s.Wait.SumNS)
	}
	if w, share, ok := s.Straggler(); ok {
		pr.Straggler, pr.StragglerShare = w, share
	}
	return pr
}

// candidates returns the primitives to retry at a site, cheapest estimated
// cost first: the site's rejected-alternatives ladder (every primitive the
// static pass tried and gave up on) restricted to the ones a feedback flip
// can express without new static analysis — "none" (drop the sync) and
// "counter" (produce-consume counter; needs no wait directions or scan
// pairs). The order comes from the measured kind-cost priors, not the
// static ladder.
func candidates(sy *syncopt.Sync, costs map[string]float64, siteCost float64) []string {
	from := sy.Class.String()
	rej := remarks.MergeRejected(sy.Deps, sy.Rejected, from)
	var out []string
	for _, a := range rej {
		if a.Primitive == remarks.PrimNone || a.Primitive == remarks.PrimCounter {
			out = append(out, a.Primitive)
		}
	}
	// A barrier placed with no rejection ladder (e.g. a conservative
	// strengthening that recorded its reasons as deps only) still gets the
	// expressible candidates.
	if len(out) == 0 && sy.Class == comm.ClassBarrier {
		out = []string{remarks.PrimNone, remarks.PrimCounter}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return estCost(out[i], costs, siteCost) < estCost(out[j], costs, siteCost)
	})
	return out
}

// estCost is a candidate kind's estimated per-op cost at a site whose
// current primitive measured siteCost. Two estimates compete, and both
// are upper bounds, so the smaller wins. The measured kind prior bundles
// producer slack with primitive overhead — a consumer blocked on a
// counter is usually waiting out the producer's compute, not the
// increment — so carrying it to another site overstates what the
// primitive itself would cost there. The structural fallback fraction is
// blind to measured evidence but does scale with this site's own cost.
// Taking the min means either kind of evidence can argue a flip; the
// hysteresis gate, the rendezvous damper and the certifier remain the
// brakes, and the promote path separately handles primitives that
// measure pathologically slow in place.
func estCost(kind string, costs map[string]float64, siteCost float64) float64 {
	est := fallbackFraction[kind] * siteCost
	if c, ok := costs[kind]; ok && c < est {
		est = c
	}
	return est
}

// rendezvousBound reports whether every recorded dependence at a barrier
// site individually requires the full barrier (e.g. replicated reads of a
// parallel write, or incomparable iteration spaces). At such a site the
// all-to-all rendezvous IS the ordering requirement: a produce-consume
// counter substituting for it must couple the same producer and consumer
// sets, so it re-creates the rendezvous and merely swaps the primitive
// constant. No cost prior argues otherwise: the static fallback fraction
// prices the counter at a fixed discount regardless of structure, and a
// counter cost measured elsewhere in the program was measured at a site
// with sparser coupling — that sparseness is why it was cheap — so
// neither transfers to a site whose coupling is the full rendezvous. The
// weaken path therefore refuses counter flips here unconditionally. A
// barrier whose deps are individually weaker (none/neighbor/counter/
// inspector) earned its strength only from the conservative combination
// rule — exactly the over-strengthening feedback can recover — and is
// never damped.
func rendezvousBound(sy *syncopt.Sync) bool {
	if sy.Class != comm.ClassBarrier || len(sy.Deps) == 0 {
		return false
	}
	for _, d := range sy.Deps {
		if d.Class != remarks.PrimBarrier {
			return false
		}
	}
	return true
}

// Reoptimize runs the feedback pass: sched is the statically-built
// schedule the profile measured (the caller has already verified identity
// hashes), prof its merged profile, check the certifier closure. The
// returned Result holds a re-optimized clone; sched itself is never
// mutated. The pass is deterministic: sites are visited in descending
// measured-wait order (site id as tiebreak), candidates in estimated-cost
// order, and no map iteration order leaks into decisions.
func Reoptimize(sched *syncopt.Schedule, prof *profile.Profile, check CheckFunc) (*Result, error) {
	if sched == nil || prof == nil {
		return nil, fmt.Errorf("fdo: nil schedule or profile")
	}
	if check == nil {
		check = func(*syncopt.Schedule) (bool, error) { return false, nil }
	}
	out := sched.Clone()
	bounds := out.Boundaries()
	res := &Result{Schedule: out}

	var totalWaitNS int64
	for i := range prof.Sites {
		totalWaitNS += prof.Sites[i].Wait.SumNS
	}
	costs := kindCosts(prof)

	// Visit order: descending measured wait, ascending site id.
	order := make([]int, 0, len(prof.Sites))
	for i := range prof.Sites {
		order = append(order, i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := &prof.Sites[order[a]], &prof.Sites[order[b]]
		if sa.Wait.SumNS != sb.Wait.SumNS {
			return sa.Wait.SumNS > sb.Wait.SumNS
		}
		return sa.Site < sb.Site
	})

	barrierCost, hasBarrierCost := costs[remarks.PrimBarrier]

	for _, idx := range order {
		sp := &prof.Sites[idx]
		if sp.Site < 1 || sp.Site > len(bounds) {
			return nil, fmt.Errorf("fdo: profile site %d outside schedule's %d sites (stale profile?)", sp.Site, len(bounds))
		}
		sy := bounds[sp.Site-1]
		from := sy.Class.String()
		if sp.Kind != from {
			return nil, fmt.Errorf("fdo: profile site %d measured %q but schedule has %q (stale profile?)", sp.Site, sp.Kind, from)
		}
		if sy.Class == comm.ClassNone || sp.Wait.Count < minWaits || sp.Ops == 0 {
			continue
		}
		pr := prior(prof, sp, totalWaitNS)
		siteCost := float64(sp.Wait.SumNS) / float64(sp.Ops)

		// Strengthen a primitive that measured pathologically slow: its
		// per-op wait dwarfs what a barrier costs in this same program.
		// A barrier orders everything, so certification cannot fail, but
		// the check still runs (fail closed on a buggy checker).
		if sy.Class != comm.ClassBarrier && hasBarrierCost &&
			pr.Share >= promoteShare && siteCost >= promoteFactor*barrierCost {
			old := *sy
			sy.Class = comm.ClassBarrier
			sy.WaitLower, sy.WaitUpper = false, false
			if ok, err := check(out); err != nil {
				return nil, fmt.Errorf("fdo: certifier on site %d promote: %w", sp.Site, err)
			} else if ok {
				reason := fmt.Sprintf("measured %.0fns/op, %.1f× the %.0fns/op barrier prior at %.0f%% of program wait",
					siteCost, siteCost/barrierCost, barrierCost, pr.Share*100)
				save := int64((siteCost - barrierCost) * float64(pr.Ops))
				sy.FDO = &remarks.FDORemark{From: from, Action: "promote", Reason: reason,
					Prior: pr, PredictedSaveNS: save}
				res.Decisions = append(res.Decisions, Decision{Site: sp.Site, Action: "promote",
					From: from, To: remarks.PrimBarrier, Reason: reason, Prior: pr,
					PredictedSaveNS: save, Certified: true})
				res.Flips++
				res.PredictedSaveNS += save
				continue
			}
			*sy = old
		}

		// Weaken: retry the rejected-alternatives ladder, re-ranked by
		// measured kind costs, keeping the first candidate the certifier
		// re-proves whose estimated cost clears the hysteresis gate.
		if pr.Share < minShare {
			continue
		}
		bound := rendezvousBound(sy)
		for _, cand := range candidates(sy, costs, siteCost) {
			est := estCost(cand, costs, siteCost)
			if bound && cand == remarks.PrimCounter {
				res.Decisions = append(res.Decisions, Decision{Site: sp.Site, Action: "reject",
					From: from, To: cand, Prior: pr, Certified: false,
					Reason: "every flow at this site individually requires the full rendezvous; a counter here must couple the same producer and consumer sets, so no prior measured at a sparser site argues a discount"})
				continue
			}
			if est >= siteCost*weakenFactor {
				res.Decisions = append(res.Decisions, Decision{Site: sp.Site, Action: "reject",
					From: from, To: cand, Prior: pr, Certified: false,
					Reason: fmt.Sprintf("estimated %.0fns/op for %s does not clear %.0fns/op measured × %.2f",
						est, cand, siteCost, weakenFactor)})
				continue
			}
			old := *sy
			sy.Class = classFor[cand]
			sy.WaitLower, sy.WaitUpper = false, false
			ok, err := check(out)
			if err != nil {
				return nil, fmt.Errorf("fdo: certifier on site %d -> %s: %w", sp.Site, cand, err)
			}
			if !ok {
				*sy = old
				res.Decisions = append(res.Decisions, Decision{Site: sp.Site, Action: "reject",
					From: from, To: cand, Prior: pr, Certified: false,
					Reason: fmt.Sprintf("certifier refused %s: an unordered cross-processor flow remains", cand)})
				continue
			}
			save := int64((siteCost - est) * float64(pr.Ops))
			reason := fmt.Sprintf("certified %s at estimated %.0fns/op vs %.0fns/op measured (%.0f%% of program wait)",
				cand, est, siteCost, pr.Share*100)
			sy.FDO = &remarks.FDORemark{From: from, Action: "weaken", Reason: reason,
				Prior: pr, PredictedSaveNS: save}
			res.Decisions = append(res.Decisions, Decision{Site: sp.Site, Action: "weaken",
				From: from, To: cand, Reason: reason, Prior: pr,
				PredictedSaveNS: save, Certified: true})
			res.Flips++
			res.PredictedSaveNS += save
			break
		}
	}

	return res, nil
}
