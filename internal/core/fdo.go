// Facade wiring for the feedback-directed optimizer: identity/staleness
// checks against the profile, the certifier closure internal/fdo mutates
// against, and assembly of the re-optimized Compiled.
package core

import (
	"errors"
	"fmt"

	"repro/internal/certify"
	"repro/internal/fdo"
	"repro/internal/profile"
	"repro/internal/syncopt"
)

// ScheduleHash returns the synchronization-structure hash of the optimized
// schedule — the identity a profile must carry to feed back into this
// compilation.
func (c *Compiled) ScheduleHash() string { return scheduleHash(c.Schedule.Remarks()) }

// Reoptimize runs the feedback-directed pass: it validates that p was
// measured on exactly this compilation's optimized schedule (program and
// schedule hashes; profile.ErrHashMismatch otherwise, profile.ErrIncompatible
// for a chaos-perturbed profile whose waits are deliberate noise), builds
// an independent certifier closure, and hands both to fdo.Reoptimize. The
// result is a NEW Compiled sharing this one's analysis artifacts but
// carrying the re-optimized schedule — with fresh certify/lowering memos,
// so its Verdict() re-proves the flipped schedule from scratch. The
// receiver is never mutated.
func (c *Compiled) Reoptimize(p *profile.Profile, opt fdo.Options) (*Compiled, *fdo.Result, error) {
	if p == nil {
		return nil, nil, fmt.Errorf("core: nil profile")
	}
	if err := p.MatchIdentity(c.ProgramHash(), c.ScheduleHash()); err != nil {
		return nil, nil, err
	}
	if p.ChaosSeed != 0 {
		return nil, nil, fmt.Errorf("%w: profile aggregates chaos-perturbed runs (seed %d); measured waits are injected noise",
			profile.ErrIncompatible, p.ChaosSeed)
	}

	// One Analyze, many cheap Checks: the same flows re-judge every
	// candidate mutation, exactly the certifier's DropSite economy.
	an := certify.Analyze(c.Prog, ToCertify(c.Schedule.Lower(false)), c.CertifyOptions())
	if err := errors.Join(an.OracleErrs...); err != nil {
		return nil, nil, fmt.Errorf("core: certifier oracle disagreement, feedback pass aborted: %w", err)
	}
	check := func(s *syncopt.Schedule) (bool, error) {
		before := len(an.OracleErrs)
		cert, viols := an.Check(ToCertify(s.Lower(false)))
		if len(an.OracleErrs) > before {
			return false, errors.Join(an.OracleErrs[before:]...)
		}
		return cert != nil && len(viols) == 0, nil
	}

	res, err := fdo.Reoptimize(c.Schedule, p, check, opt)
	if err != nil {
		return nil, nil, err
	}
	out := &Compiled{
		Prog:         c.Prog,
		Options:      c.Options,
		Parallelized: c.Parallelized,
		Plan:         c.Plan,
		Facts:        c.Facts,
		Analyzer:     c.Analyzer,
		Schedule:     res.Schedule,
		Baseline:     c.Baseline,
		Costs:        c.Costs,
	}
	return out, res, nil
}
