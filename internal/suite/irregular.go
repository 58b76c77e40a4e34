package suite

import (
	"fmt"
	"io"

	"repro/internal/remarks"
)

// IrregularKernels returns the irregular-access suite: kernels whose
// communication pattern runs through index arrays, so affine analysis
// alone cannot place anything better than a barrier. They exercise the
// two irregular tiers — static elimination from value facts (content,
// range, monotonicity) and inspector/executor synthesis — and feed
// Table I. They are kept apart from Kernels() so the affine tables
// (1..4, W) keep their historical populations.
//
// Each kernel builds its index arrays in a guarded setup prefix (the
// pattern the irregular analysis recognizes: master-executed writes
// before any parallel work), then iterates a time loop whose parallel
// loops communicate through the index arrays.
func IrregularKernels() []Kernel {
	return []Kernel{
		{
			Name:  "permcopy",
			Shape: "identity permutation copy; value facts eliminate statically",
			Source: `
program permcopy
param N, T
real A(N), B(N), P(max(N, 1))
P(1) = 1.0
do kk = 2, N
  P(kk) = P(kk - 1) + 1.0
end do
parallel do i = 1, N
  A(i) = 1.0 / (i + 1.0)
end do
do t = 1, T
  parallel do i = 1, N
    B(P(i)) = A(i) * 0.5 + 1.0
  end do
  parallel do i = 1, N
    A(i) = B(P(i)) * 0.25 + A(i) * 0.75
  end do
end do
end
`,
			Params: map[string]int64{"N": 1024, "T": 8},
		},
		{
			Name:  "gatherscatter",
			Shape: "monotone gather/scatter map; inspector certifies no conflicts",
			Source: `
program gatherscatter
param N, T
real A(N), B(N), g(max(N, 1))
g(1) = 1.0
do kk = 2, N
  g(kk) = min(g(kk - 1) + 1.0, N)
end do
parallel do i = 1, N
  A(i) = 0.5 + 0.001 * i
end do
do t = 1, T
  parallel do i = 1, N
    B(g(i)) = A(i) + 0.5
  end do
  parallel do i = 1, N
    A(i) = B(g(i)) * 0.9 + 0.1
  end do
end do
end
`,
			Params: map[string]int64{"N": 1024, "T": 8},
		},
		{
			Name:  "spmvcsr",
			Shape: "CSR sparse matvec; inspector schedules cross-block x reads",
			Source: `
program spmvcsr
param N, T
real rp(max(N + 1, 1)), cl(max(2 * N + 1, 1)), v(max(2 * N + 1, 1)), x(N), y(N)
rp(1) = 1.0
do kk = 2, N + 1
  rp(kk) = rp(kk - 1) + 2.0
end do
cl(1) = 1.0
do kk = 2, 2 * N + 1
  cl(kk) = mod(cl(kk - 1) + 3.0, N) + 1.0
end do
parallel do k = 1, 2 * N + 1
  v(k) = 0.5
end do
parallel do i = 1, N
  x(i) = 1.0
end do
do t = 1, T
  parallel do i = 1, N
    y(i) = 0.0
    do k = rp(i), rp(i + 1) - 1
      y(i) = y(i) + v(k) * x(cl(k))
    end do
  end do
  parallel do i = 1, N
    x(i) = 0.5 * x(i) + 0.25 * y(i)
  end do
end do
end
`,
			Params: map[string]int64{"N": 512, "T": 8},
		},
		{
			Name:  "meshsmooth",
			Shape: "unstructured-mesh smoothing; gather through a neighbor table",
			Source: `
program meshsmooth
param N, T
real u(N), f(N), r(N), nb(max(N, 1))
nb(1) = min(5, N)
do kk = 2, N
  nb(kk) = mod(nb(kk - 1) + 6.0, N) + 1.0
end do
parallel do i = 1, N
  r(i) = 0.001 * i
end do
parallel do i = 1, N
  u(i) = 1.0
end do
do t = 1, T
  parallel do i = 1, N
    f(i) = u(i) * 0.5 + r(i)
  end do
  parallel do i = 1, N
    u(i) = u(i) * 0.6 + f(nb(i)) * 0.4
  end do
end do
end
`,
			Params: map[string]int64{"N": 1024, "T": 8},
		},
		{
			Name:  "edgerelax",
			Shape: "edge relaxation over a rotation map; inspector waits cross blocks",
			Source: `
program edgerelax
param N, T
real val(N), wt(N), dst(max(N, 1))
dst(1) = min(2, N)
do kk = 2, N
  dst(kk) = mod(dst(kk - 1), N) + 1.0
end do
parallel do i = 1, N
  wt(i) = 0.01 + 0.001 * i
end do
parallel do i = 1, N
  val(i) = 1.0
end do
do t = 1, T
  parallel do e = 1, N
    val(dst(e)) = val(dst(e)) * 0.95 + wt(e)
  end do
  parallel do i = 1, N
    wt(i) = 0.99 * wt(i) + 0.01 * val(i)
  end do
end do
end
`,
			Params: map[string]int64{"N": 1024, "T": 8},
		},
	}
}

// GetIrregular returns the named irregular kernel.
func GetIrregular(name string) (Kernel, error) {
	for _, k := range IrregularKernels() {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("unknown irregular kernel %q", name)
}

// MeasureIrregAll measures every irregular-suite kernel.
func MeasureIrregAll(opt MeasureOptions) ([]Metrics, error) {
	var out []Metrics
	for _, k := range IrregularKernels() {
		m, err := Measure(k, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// IrregRow is one kernel's Table I record (and the BENCH_irreg.json
// payload row).
type IrregRow struct {
	Kernel  string `json:"kernel"`
	Workers int    `json:"workers"`

	// Dynamic barrier crossings, all-barriers baseline vs optimized.
	BaseBarriers int64   `json:"base_barriers"`
	OptBarriers  int64   `json:"opt_barriers"`
	Reduction    float64 `json:"reduction"`

	// Static site mix after optimization.
	StaticInspectors int `json:"static_inspectors"`
	StaticEliminated int `json:"static_eliminated"`

	// Inspector runtime behavior, summed over sites.
	Scans          int64 `json:"scans"`
	EmptyCrossings int64 `json:"empty_crossings"`
	WaitCrossings  int64 `json:"wait_crossings"`
	Conservative   int64 `json:"conservative"`
	NeighborWaits  int64 `json:"p2p_waits"`

	// Facts: the value-analysis evidence attached to eliminated or
	// inspector boundaries by the remark layer (deduplicated).
	Facts []string `json:"facts,omitempty"`
}

// IrregReport is the BENCH_irreg.json payload.
type IrregReport struct {
	Workers       int        `json:"workers"`
	Rows          []IrregRow `json:"rows"`
	MeanReduction float64    `json:"mean_reduction"`
}

// IrregRows derives Table I rows from measured metrics plus each
// kernel's remark set (for the facts column).
func IrregRows(ms []Metrics, sets []*remarks.Set) []IrregRow {
	var out []IrregRow
	for i, m := range ms {
		row := IrregRow{
			Kernel:           m.Kernel.Name,
			Workers:          m.Workers,
			BaseBarriers:     m.DynBase.Barriers,
			OptBarriers:      m.DynOpt.Barriers,
			Reduction:        m.BarrierReduction(),
			StaticInspectors: m.StaticOpt.Inspectors,
			StaticEliminated: m.StaticOpt.None,
			NeighborWaits:    m.DynOpt.NeighborWaits,
		}
		for _, is := range m.Inspector {
			row.Scans += is.Scans
			row.EmptyCrossings += is.EmptyCrossings
			row.WaitCrossings += is.WaitCrossings
			row.Conservative += is.Conservative
		}
		if i < len(sets) && sets[i] != nil {
			row.Facts = IrregFacts(sets[i])
		}
		out = append(out, row)
	}
	return out
}

// IrregFacts collects the deduplicated irregular value facts recorded on
// a remark set's dependences, in first-appearance order.
func IrregFacts(set *remarks.Set) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range set.Remarks {
		for _, d := range r.Deps {
			for _, f := range d.Irreg {
				if !seen[f] {
					seen[f] = true
					out = append(out, f)
				}
			}
		}
	}
	return out
}

// NewIrregReport bundles rows into the JSON payload.
func NewIrregReport(rows []IrregRow) IrregReport {
	rep := IrregReport{Rows: rows}
	sum := 0.0
	for _, r := range rows {
		rep.Workers = r.Workers
		sum += r.Reduction
	}
	if len(rows) > 0 {
		rep.MeanReduction = sum / float64(len(rows))
	}
	return rep
}

// TableI prints the irregular-suite story: dynamic barrier crossings
// eliminated, the static site mix that did it, and what the inspectors
// observed at runtime. The headline claim is the MEAN row: the suite
// eliminates well over half of the baseline's dynamic barrier
// crossings even though every kernel communicates through index
// arrays the affine tier cannot analyze.
func TableI(w io.Writer, rows []IrregRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "Table I: irregular suite, dynamic barrier crossings (P=%d, standard input)\n",
		rows[0].Workers)
	fmt.Fprintf(w, "%-14s %10s %9s %10s %6s %6s %6s %6s %7s %9s\n",
		"program", "base.barr", "opt.barr", "reduction",
		"insp", "scans", "empty", "waits", "consrv", "p2p.waits")
	sum := 0.0
	for _, r := range rows {
		sum += r.Reduction
		fmt.Fprintf(w, "%-14s %10d %9d %9.1f%% %6d %6d %6d %6d %7d %9d\n",
			r.Kernel, r.BaseBarriers, r.OptBarriers, r.Reduction*100,
			r.StaticInspectors, r.Scans, r.EmptyCrossings, r.WaitCrossings,
			r.Conservative, r.NeighborWaits)
	}
	fmt.Fprintf(w, "%-14s %30.1f%%\n", "MEAN", sum/float64(len(rows))*100)
	for _, r := range rows {
		if len(r.Facts) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s facts:\n", r.Kernel)
		for _, f := range r.Facts {
			fmt.Fprintf(w, "  %s\n", f)
		}
	}
}
