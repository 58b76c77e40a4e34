package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// exactCount reports whether a per-layer metric counts work the program
// does, which must repeat exactly between two runs of one commit on one
// seed (sample counts and timing-derived shares do not).
func exactCount(m metricSpec) bool {
	if m.Unit != "count" {
		return false
	}
	for _, prefix := range []string{"spmdrt.", "linear.", "syncopt.static_", "certify.fm_systems",
		"dyn_barriers", "exec.inspector_scans", "exec.inspector_conflicts"} {
		if strings.HasPrefix(m.Name, prefix) {
			return true
		}
	}
	return false
}

// timed reports whether a metric is a time, which host noise can move;
// heap and counts are exact whatever the host does.
func timed(m metricSpec) bool { return m.Unit == "s" || m.Unit == "ms" }

func loadResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per workload and end-to-end metric, how much worse
// B is than A against the bound BENCHMARK.json fixes. A pair of times is
// unresolved when the host noise either side recorded exceeds the bound,
// or when the calibration loop itself ran that much faster on one side:
// the difference could be the host's. It returns 1 when any metric
// exceeds its bound, any exact count differs or any operation failed.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) int {
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		f, err := loadResult(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		files[i] = f
	}
	return compareResults(spec, files[0], files[1], w)
}

func compareResults(spec *benchSpec, a, b *resultFile, w io.Writer) int {
	status := 0
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Workload == wa.Workload {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(w, "%-14s failed operations: A %d, B %d\n", wa.Workload, wa.Failed, wb.Failed)
			status = 1
		}
		// The end-to-end numbers come from the untraced pass, so its
		// calibration decides; the traced pass's stands in when a file
		// holds only that one.
		noise, spin := 0.0, [2]float64{}
		for i, side := range []*workloadResult{&wa, wb} {
			host, ok := side.Hosts["end_to_end"]
			if !ok {
				host = side.Hosts["per_layer"]
			}
			noise = math.Max(noise, host.NoisePct/100)
			spin[i] = host.SpinQ1US
		}
		shift := 0.0
		if spin[0] > 0 && spin[1] > 0 {
			shift = math.Abs(spin[1]-spin[0]) / math.Min(spin[0], spin[1])
		}
		for _, m := range spec.EndToEnd {
			va, oka := wa.Metrics[m.Name]
			vb, okb := wb.Metrics[m.Name]
			if !oka || !okb || va.Value == 0 {
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case timed(m) && noise > m.Bound:
				verdict = fmt.Sprintf("unresolved (host noise %.1f%%)", 100*noise)
			case timed(m) && shift > m.Bound:
				verdict = fmt.Sprintf("unresolved (calibration loop moved %.1f%%)", 100*shift)
			case worse > m.Bound:
				verdict = "EXCEEDS"
				status = 1
			}
			fmt.Fprintf(w, "%-14s %-18s %12.6g %12.6g %+8.2f%% %6.1f%%  %s\n",
				wa.Workload, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, verdict)
		}
		for _, m := range spec.PerLayer {
			va, oka := wa.Metrics[m.Name]
			vb, okb := wb.Metrics[m.Name]
			if exactCount(m) && oka && okb && va.Value != vb.Value {
				fmt.Fprintf(w, "%-14s %-18s %12.6g %12.6g  exact count differs\n", wa.Workload, m.Name, va.Value, vb.Value)
				status = 1
			}
		}
	}
	return status
}
