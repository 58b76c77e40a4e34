// Package profile is the durable synchronization-profiling layer: a
// schema-versioned, mergeable, diffable record of what every sync site
// cost at run time. A run's trace summary and sync report evaporate at
// process exit; a Profile survives — written by `spmdrun -profile-out`,
// appended per run to a ledger (`spmdrun -ledger`), rolled up across runs
// with Merge, and compared across builds or configurations with Diff — so
// feedback-directed re-optimization (`spmdrun -profile-in`, `barrierc
// -fdo`) and the regression watch (`spmdprof ledger -watch`) have measured
// per-site cost history to consume.
//
// Site ids are the global 1-based sync-site numbering shared with the
// optimization remarks, the cancellation report's counter sites,
// spmdrt.StatsSnapshot.PerSite, exec.Config.SabotageEdge and
// certify.DropSite — the invariant suite.TestSiteNumberingAgreement pins.
// Sites are kept sorted by id so serialization is byte-stable.
//
// The package is a leaf on the analysis/runtime seam: it imports only
// internal/envelope (serialization) and internal/remarks (the ledger
// carries the compile's cost bill), never the executor or the optimizer.
package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Schema is the profile payload schema emitted by this build. Readers
// reject payloads whose schema is newer; older schemas are accepted as
// long as the fields decode (there are none yet).
const Schema = 1

// SiteProfile is the durable per-site record: the site's scheduled
// primitive, its dynamic operation count, the mergeable wait-time sketch,
// and barrier-imbalance / straggler attribution.
type SiteProfile struct {
	// Site is the 1-based global sync-site id.
	Site int `json:"site"`
	// Kind is the scheduled primitive ("barrier", "counter", "neighbor"),
	// matching remarks.Remark.Primitive at the same site.
	Kind string `json:"kind"`
	// Ops is the dynamic sync-operation count at the site (barrier
	// episodes + counter incrs/waits + neighbor waits), summed across the
	// aggregated runs.
	Ops int64 `json:"ops"`
	// Wait is the sketch of every blocking wait recorded at the site.
	Wait Sketch `json:"wait"`
	// Barrier-imbalance attribution (barrier sites only): per-episode
	// arrival slack and which worker most often arrived last. SlackSumNS
	// rather than a mean so cross-run merging stays exact.
	Episodes     int64   `json:"episodes,omitempty"`
	SlackSumNS   int64   `json:"slack_sum_ns,omitempty"`
	MaxSlackNS   int64   `json:"max_slack_ns,omitempty"`
	LastByWorker []int64 `json:"last_by_worker,omitempty"`
	// Inspector-site runtime behavior (inspector sites only): index-array
	// scans executed, crossings certified conflict-free (all waits
	// skipped), crossings that synthesized point-to-point waits, and
	// conservative all-pairs fallbacks. Additive across merged runs.
	Scans          int64 `json:"scans,omitempty"`
	EmptyCrossings int64 `json:"empty_crossings,omitempty"`
	WaitCrossings  int64 `json:"wait_crossings,omitempty"`
	Conservative   int64 `json:"conservative,omitempty"`
}

// Straggler returns the worker most often last to arrive and its share of
// episodes; ok is false when no imbalance was attributed.
func (s *SiteProfile) Straggler() (worker int, share float64, ok bool) {
	if s.Episodes == 0 || len(s.LastByWorker) == 0 {
		return 0, 0, false
	}
	for w, c := range s.LastByWorker {
		if c > s.LastByWorker[worker] {
			worker = w
		}
	}
	return worker, float64(s.LastByWorker[worker]) / float64(s.Episodes), true
}

// Profile is one durable sync profile: the identity of what ran (program
// content hash, schedule hash, configuration) plus the per-site records.
// A profile may describe one run (Runs == 1) or a Merge rollup.
type Profile struct {
	Schema int `json:"profile_schema"`
	// Program is the program name; ProgramHash is the content hash of its
	// IR (core.Compiled.ProgramHash), so profiles from edited sources
	// never merge.
	Program     string `json:"program"`
	ProgramHash string `json:"program_hash"`
	// ScheduleHash identifies the exact synchronization schedule (site
	// primitives, wait directions, boundary structure); a re-optimized
	// schedule gets a new hash and its profiles form a new lineage.
	ScheduleHash string `json:"schedule_hash"`
	// Mode/Workers/Backend/Barrier pin the execution configuration.
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	Backend string `json:"backend"`
	Barrier string `json:"barrier,omitempty"`
	// ChaosSeed records deliberate perturbation (0 for clean runs; -1
	// after merging profiles with differing seeds).
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// Runs is the number of runs aggregated into this profile.
	Runs int `json:"runs"`
	// SpanNS sums the traced wall-clock span of the aggregated runs.
	SpanNS int64 `json:"span_ns"`
	// Sites holds one record per scheduled sync site that retains runtime
	// synchronization, sorted by ascending site id.
	Sites []SiteProfile `json:"sites"`
}

// Site returns the record for a 1-based site id, or nil.
func (p *Profile) Site(id int) *SiteProfile {
	for i := range p.Sites {
		if p.Sites[i].Site == id {
			return &p.Sites[i]
		}
	}
	return nil
}

// TotalWait sums blocking wait time over all sites.
func (p *Profile) TotalWait() time.Duration {
	var ns int64
	for i := range p.Sites {
		ns += p.Sites[i].Wait.SumNS
	}
	return time.Duration(ns)
}

// normalize sorts sites by id (the serialization order every emitter must
// use) and validates basic invariants. It is the one validation point of
// every profile read, written or merged.
func (p *Profile) normalize() error {
	sort.Slice(p.Sites, func(i, j int) bool { return p.Sites[i].Site < p.Sites[j].Site })
	for i := range p.Sites {
		sp := &p.Sites[i]
		if sp.Site < 1 {
			return fmt.Errorf("%w: invalid site id %d (ids are 1-based)", ErrEnvelope, sp.Site)
		}
		if i > 0 && sp.Site == p.Sites[i-1].Site {
			return fmt.Errorf("%w: duplicate site id %d", ErrEnvelope, sp.Site)
		}
		if name, v, ok := sp.negativeField(); ok {
			return fmt.Errorf("%w: site %d has negative %s %d", ErrEnvelope, sp.Site, name, v)
		}
	}
	if p.Runs < 1 {
		return fmt.Errorf("%w: runs=%d, want >= 1", ErrEnvelope, p.Runs)
	}
	if p.SpanNS < 0 {
		return fmt.Errorf("%w: negative span_ns %d", ErrEnvelope, p.SpanNS)
	}
	return nil
}

// negativeField names the first of the site's counts and durations that is
// negative; every one of them is a count or a sum of durations, so a
// negative value can only come from a corrupt or hostile file.
func (s *SiteProfile) negativeField() (string, int64, bool) {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"ops", s.Ops}, {"episodes", s.Episodes},
		{"slack_sum_ns", s.SlackSumNS}, {"max_slack_ns", s.MaxSlackNS},
		{"scans", s.Scans}, {"empty_crossings", s.EmptyCrossings},
		{"wait_crossings", s.WaitCrossings}, {"conservative", s.Conservative},
		{"sum_ns", s.Wait.SumNS}, {"min_ns", s.Wait.MinNS}, {"max_ns", s.Wait.MaxNS},
	} {
		if f.v < 0 {
			return f.name, f.v, true
		}
	}
	for w, c := range s.LastByWorker {
		if c < 0 {
			return fmt.Sprintf("last_by_worker[%d]", w), c, true
		}
	}
	return "", 0, false
}

// Compatible reports whether two profiles describe the same (program,
// schedule, configuration) and may therefore be merged or diffed; the
// error names the first mismatching field.
func (p *Profile) Compatible(o *Profile) error {
	type field struct{ name, a, b string }
	for _, f := range []field{
		{"program", p.Program, o.Program},
		{"program_hash", p.ProgramHash, o.ProgramHash},
		{"schedule_hash", p.ScheduleHash, o.ScheduleHash},
		{"mode", p.Mode, o.Mode},
		{"workers", fmt.Sprint(p.Workers), fmt.Sprint(o.Workers)},
		{"backend", p.Backend, o.Backend},
	} {
		if f.a != f.b {
			if f.name == "program_hash" || f.name == "schedule_hash" {
				return fmt.Errorf("%w: %s %q vs %q", ErrHashMismatch, f.name, f.a, f.b)
			}
			return fmt.Errorf("%w: %s %q vs %q", ErrIncompatible, f.name, f.a, f.b)
		}
	}
	return nil
}

// GroupKey is the ledger-grouping identity of a profile: profiles with
// equal keys are Compatible.
func (p *Profile) GroupKey() string {
	return fmt.Sprintf("%s|%s|%s|%s|P%d|%s",
		p.Program, p.ProgramHash, p.ScheduleHash, p.Mode, p.Workers, p.Backend)
}

// Merge aggregates compatible profiles into one rollup, weighted naturally
// by each input's run count: ops, sketches, spans and imbalance vectors
// add exactly, so a merge of merges equals the merge of the underlying
// runs. A sum that would overflow is an error, never a wrapped count.
// Merging a single profile returns an identical copy (the byte round-trip
// identity the determinism gate relies on).
func Merge(ps ...*Profile) (*Profile, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("profile: nothing to merge")
	}
	base := ps[0]
	out := &Profile{
		Schema:      Schema,
		Program:     base.Program,
		ProgramHash: base.ProgramHash, ScheduleHash: base.ScheduleHash,
		Mode: base.Mode, Workers: base.Workers,
		Backend: base.Backend, Barrier: base.Barrier,
		ChaosSeed: base.ChaosSeed,
	}
	// Indices, not pointers: out.Sites reallocates as it grows.
	bySite := map[int]int{}
	for _, p := range ps {
		if err := base.Compatible(p); err != nil {
			return nil, err
		}
		if p.Barrier != base.Barrier {
			out.Barrier = ""
		}
		if p.ChaosSeed != base.ChaosSeed {
			out.ChaosSeed = -1 // mixed perturbation lineage, keep it visible
		}
		if err := errors.Join(add(&out.Runs, p.Runs, "runs"), add(&out.SpanNS, p.SpanNS, "span_ns")); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		for i := range p.Sites {
			sp := &p.Sites[i]
			idx, ok := bySite[sp.Site]
			if !ok {
				idx = len(out.Sites)
				out.Sites = append(out.Sites, SiteProfile{Site: sp.Site, Kind: sp.Kind})
				bySite[sp.Site] = idx
			}
			dst := &out.Sites[idx]
			if dst.Kind != sp.Kind {
				return nil, fmt.Errorf("profile: site %d is %q in one input, %q in another",
					sp.Site, dst.Kind, sp.Kind)
			}
			if sp.MaxSlackNS > dst.MaxSlackNS {
				dst.MaxSlackNS = sp.MaxSlackNS
			}
			for len(dst.LastByWorker) < len(sp.LastByWorker) {
				dst.LastByWorker = append(dst.LastByWorker, 0)
			}
			errs := []error{
				dst.Wait.Merge(&sp.Wait),
				add(&dst.Ops, sp.Ops, "ops"),
				add(&dst.Episodes, sp.Episodes, "episodes"),
				add(&dst.SlackSumNS, sp.SlackSumNS, "slack_sum_ns"),
				add(&dst.Scans, sp.Scans, "scans"),
				add(&dst.EmptyCrossings, sp.EmptyCrossings, "empty_crossings"),
				add(&dst.WaitCrossings, sp.WaitCrossings, "wait_crossings"),
				add(&dst.Conservative, sp.Conservative, "conservative"),
			}
			for w, c := range sp.LastByWorker {
				errs = append(errs, add(&dst.LastByWorker[w], c, "last_by_worker"))
			}
			if err := errors.Join(errs...); err != nil {
				return nil, fmt.Errorf("profile: site %d: %w", sp.Site, err)
			}
		}
	}
	if err := out.normalize(); err != nil {
		return nil, err
	}
	return out, nil
}

// add sets *dst += v, or leaves *dst and returns an error when the sum
// overflows.
func add[T int | int64](dst *T, v T, name string) error {
	sum := *dst + v
	if (sum < *dst) != (v < 0) {
		return fmt.Errorf("merged %s overflows (%d + %d)", name, *dst, v)
	}
	*dst = sum
	return nil
}

// HashBytes is the canonical content hash used for ProgramHash and
// ScheduleHash: hex-encoded truncated SHA-256 over a deterministic
// rendering of the hashed artifact.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12])
}
