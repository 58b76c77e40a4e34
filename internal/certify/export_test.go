package certify

import (
	"encoding/json"

	"repro/internal/ir"
)

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

// JSON renders the certificate as the golden pins it.
func (c *Certificate) JSON() []byte {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil { // only on unmarshalable types, which these are not
		return []byte("{}")
	}
	return append(b, '\n')
}

// Kinds returns the boundary kind at every site, indexed by site id.
func (p *Program) Kinds() []Kind {
	out := make([]Kind, len(p.Sites))
	for i, s := range p.Sites {
		out[i] = s.Kind
	}
	return out
}
