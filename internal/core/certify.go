package core

import (
	"repro/internal/certify"
	"repro/internal/comm"
	"repro/internal/syncopt"
)

// ToCertify translates a lowered schedule into the certifier's step
// program. The translation is the only coupling between the optimizer and
// the certifier: certify never imports syncopt or comm, so this adapter
// lives in core. Producer lists are shared (the certifier treats them as
// read-only); step and site records are copied.
func ToCertify(low *syncopt.Steps) *certify.Program {
	p := &certify.Program{Steps: make([]certify.Step, len(low.Steps)), Sites: make([]certify.Site, len(low.Sites))}
	for i, st := range low.Steps {
		s := certify.Step{Kind: stepKinds[st.Kind], Site: st.Site}
		if st.Loop != nil {
			s.Stmt = st.Loop
		} else if len(st.Stmts) > 0 {
			s.Stmt = st.Stmts[0]
		}
		p.Steps[i] = s
	}
	for i, site := range low.Sites {
		p.Sites[i] = certify.Site{
			Kind:      siteKinds[site.Class],
			WaitLower: site.WaitLower,
			WaitUpper: site.WaitUpper,
			Inspect:   inspectKeys(site.Inspect),
			Producers: site.Producers,
			Master:    site.Master,
			All:       site.All,
			Loop:      site.Region.Loop,
			Index:     site.Index,
			Start:     site.Start,
		}
	}
	return p
}

// stepKinds names each lowered step by the workers that run it.
var stepKinds = [...]certify.StepKind{
	syncopt.StepParallel:   certify.StepTeam,
	syncopt.StepReplicated: certify.StepEvery,
	syncopt.StepGuarded:    certify.StepMaster,
	syncopt.StepWavefront:  certify.StepRelay,
	syncopt.StepDispatch:   certify.StepDispatch,
	syncopt.StepSeq:        certify.StepSeq,
	syncopt.StepNext:       certify.StepNext,
	syncopt.StepSync:       certify.StepSync,
}

// inspectKeys translates an inspector boundary's scan-pair list. The key
// fields are IR pointers shared by both sides, so the certifier's
// re-derived pair keys match these exactly when they name the same pair.
func inspectKeys(pairs []comm.InspectPair) []certify.InspectKey {
	var out []certify.InspectKey
	for _, p := range pairs {
		out = append(out, certify.InspectKey{
			Array: p.Array, Carrier: p.Carrier,
			SrcRef: p.Src.Ref, DstRef: p.Dst.Ref,
			SrcStmt: p.Src.Stmt, DstStmt: p.Dst.Stmt,
			SrcWrite: p.Src.Write, DstWrite: p.Dst.Write,
		})
	}
	return out
}

// siteKinds maps a boundary's class to the certifier's primitive.
var siteKinds = [...]certify.Kind{
	comm.ClassNone:      certify.KindNone,
	comm.ClassNeighbor:  certify.KindNeighbor,
	comm.ClassCounter:   certify.KindCounter,
	comm.ClassInspector: certify.KindInspector,
	comm.ClassBarrier:   certify.KindBarrier,
}

// CertifyOptions returns the certifier options matching this compilation.
func (c *Compiled) CertifyOptions() certify.Options {
	return certify.Options{Decomp: c.Options.Decomp}
}

// Certify runs the independent static certifier over the optimized
// schedule's step program. It returns the certificate on success or the
// unordered flows on failure; the error reports solver-oracle disagreements
// (in which case neither result should be trusted).
func (c *Compiled) Certify() (*certify.Certificate, []certify.Violation, error) {
	return certify.Certify(c.Prog, ToCertify(c.Schedule.Lower()), c.CertifyOptions())
}
