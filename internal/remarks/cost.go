// Analysis-cost metrics: what the compile itself cost, phase by phase —
// wall time plus Fourier-Motzkin solver work — so the price of the
// optimization is as observable as its benefit. Published on core.Result
// and as attributes of the compile span (`spmdrun -spans`).
package remarks

import (
	"fmt"
	"strings"
	"time"
)

// Phase is one pipeline phase's cost.
type Phase struct {
	Name string        `json:"name"`
	Wall time.Duration `json:"wall_ns"`
	// FMSystems counts the FM systems solved during this phase (zero for
	// phases that never touch the solver).
	FMSystems int64 `json:"fm_systems,omitempty"`
}

// Costs is one compile's analysis bill.
type Costs struct {
	Phases []Phase       `json:"phases"`
	Total  time.Duration `json:"total_ns"`
	// Solver totals across all phases.
	FMSystems      int64 `json:"fm_systems"`
	VarsEliminated int64 `json:"vars_eliminated"`
	IneqsGenerated int64 `json:"ineqs_generated"`
	Bailouts       int64 `json:"bailouts"`
	Enumerations   int64 `json:"enumerations"`
}

func (c Costs) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "compile %s: %d FM systems, %d vars eliminated, %d ineqs generated, %d bailouts, %d enumerations\n",
		c.Total, c.FMSystems, c.VarsEliminated, c.IneqsGenerated, c.Bailouts, c.Enumerations)
	for _, p := range c.Phases {
		fmt.Fprintf(&sb, "  %-12s %12s", p.Name, p.Wall)
		if p.FMSystems > 0 {
			fmt.Fprintf(&sb, "  (%d FM systems)", p.FMSystems)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
