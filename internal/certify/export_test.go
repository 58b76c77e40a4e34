package certify

import "repro/internal/ir"

// Producing returns the statements producing each flow of the analysis, in
// the order of a certificate's flows.
func (an *Analysis) Producing() [][]ir.Stmt {
	var out [][]ir.Stmt
	for _, r := range an.regions {
		for _, f := range r.flows {
			out = append(out, f.prod)
		}
	}
	return out
}
