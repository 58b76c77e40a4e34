package suite

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
)

// SpanBenchRow is one row of Table S: the cost of the run-lifecycle span
// layer on one kernel, whole-request walls (core.Do, lint through report)
// with spans off vs on, compared by Paired. The off leg exercises the
// nil-trace path — the pointer checks the telemetry plumbing left in the
// executor's hot loop — which is the cost every non-observed run pays.
type SpanBenchRow struct {
	Kernel string `json:"kernel"`
	// OffNS/OnNS are each side's median whole-request wall.
	OffNS int64 `json:"off_ns"`
	OnNS  int64 `json:"on_ns"`
	// Spans is the span count one observed run produces.
	Spans int `json:"spans"`
	// OverheadPct is the median paired on−off delta in percent of OffNS
	// (negative = noise); NoiseNS is the interquartile range of the deltas.
	OverheadPct float64 `json:"overhead_pct"`
	NoiseNS     int64   `json:"noise_ns"`
	// Verdict judges spans-on against the envelope; Regressed is its worse.
	Verdict   Verdict `json:"verdict"`
	Regressed bool    `json:"regressed"`
}

// SpanBenchReport is the Table S artifact, the payload of BENCH_spans.json.
type SpanBenchReport struct {
	Workers int `json:"workers"`
	Pairs   int `json:"pairs"`
	// ThresholdPct is the overhead envelope the rows were judged against.
	ThresholdPct float64        `json:"threshold_pct"`
	Rows         []SpanBenchRow `json:"rows"`
	MaxPct       float64        `json:"max_pct"`
	Regressions  int            `json:"regressions"`
}

// spanBenchThresholdPct is the overhead envelope (the acceptance bound:
// spans must stay within 2% of the spans-off wall).
const spanBenchThresholdPct = 2.0

// spanBenchKernels is the default Table S subset: one kernel per dynamic
// sync shape (neighbor waves, kept barriers, counter chains) so the span
// plumbing is judged against every executor code path it instruments.
var spanBenchKernels = []string{"jacobi2d", "dotchain", "tred2like"}

// MeasureSpanBench measures the span layer's cost per kernel over pairs
// off/on pairs (default 10) of the full request, judged against the
// overhead envelope.
func MeasureSpanBench(kernelNames []string, workers, pairs int) (*SpanBenchReport, error) {
	if len(kernelNames) == 0 {
		kernelNames = spanBenchKernels
	}
	if workers <= 0 {
		workers = 4
	}
	if pairs <= 0 {
		pairs = 10
	}
	rep := &SpanBenchReport{Workers: workers, Pairs: pairs, ThresholdPct: spanBenchThresholdPct}
	for _, name := range kernelNames {
		k, err := Get(name)
		if err != nil {
			return nil, err
		}
		row := SpanBenchRow{Kernel: name}
		cmp, err := Paired(pairs, requestLeg(k, workers, false, nil), requestLeg(k, workers, true, &row.Spans))
		if err != nil {
			return nil, err
		}
		row.OffNS, row.OnNS = int64(cmp.MedianA), int64(cmp.MedianB)
		row.OverheadPct, row.NoiseNS = cmp.Pct(), int64(cmp.Noise)
		row.Verdict = cmp.Verdict(spanBenchThresholdPct / 100)
		row.Regressed = row.Verdict == Worse
		if row.OverheadPct > rep.MaxPct {
			rep.MaxPct = row.OverheadPct
		}
		if row.Regressed {
			rep.Regressions++
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// requestLeg measures one whole request (core.Do) of k with the span layer
// off or on; spanCount, when non-nil, receives the run's span count.
func requestLeg(k Kernel, workers int, spans bool, spanCount *int) Leg {
	return func() (time.Duration, error) {
		req := core.NewRequest(k.Source,
			core.WithParams(k.Params), core.WithWorkers(workers))
		req.Run.Spans = spans
		t0 := time.Now()
		res, err := core.Do(context.Background(), req)
		if err != nil {
			return 0, fmt.Errorf("spanbench: %s (spans=%v): %w", k.Name, spans, err)
		}
		wall := time.Since(t0)
		if spanCount != nil {
			res.Telemetry.Finish()
			*spanCount = len(res.Telemetry.Spans())
		}
		return wall, nil
	}
}

// TableS prints the span-layer overhead per kernel.
func TableS(w io.Writer, rep *SpanBenchReport) {
	fmt.Fprintf(w, "Table S: run-lifecycle span overhead, spans off vs on (P=%d, %d pairs, envelope %.0f%%)\n",
		rep.Workers, rep.Pairs, rep.ThresholdPct)
	fmt.Fprintf(w, "%-14s %12s %12s %7s %9s %12s  %s\n",
		"kernel", "spans-off", "spans-on", "spans", "overhead", "±noise", "verdict")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-14s %12s %12s %7d %8.2f%% %12s  %s\n",
			r.Kernel,
			time.Duration(r.OffNS).Round(10*time.Microsecond),
			time.Duration(r.OnNS).Round(10*time.Microsecond),
			r.Spans, r.OverheadPct,
			time.Duration(r.NoiseNS).Round(10*time.Microsecond), r.Verdict)
	}
	fmt.Fprintf(w, "max overhead %.2f%%, %d regression(s)\n", rep.MaxPct, rep.Regressions)
}
