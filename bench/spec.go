package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// metricSpec is one metric as BENCHMARK.json declares it. The harness
// takes every unit and bound from that file, so the two cannot disagree.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) find(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metricSet collects one pass's metrics. A name BENCHMARK.json does not
// declare is an error of the harness, reported at exit.
type metricSet struct {
	spec    *benchSpec
	Values  map[string]metricValue
	unknown []string
}

func newMetricSet(spec *benchSpec) *metricSet {
	return &metricSet{spec: spec, Values: map[string]metricValue{}}
}

func (m *metricSet) set(name string, v float64) {
	ms, ok := m.spec.find(name)
	if !ok || !metricName.MatchString(name) {
		m.unknown = append(m.unknown, name)
		return
	}
	m.Values[name] = metricValue{Value: v, Unit: ms.Unit}
}

// missing lists the declared metrics of one kind that values lacks.
func missing(values map[string]metricValue, declared []metricSpec) []string {
	var out []string
	for _, d := range declared {
		if _, ok := values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

func (m *metricSet) print(w io.Writer) {
	names := make([]string, 0, len(m.Values))
	for n := range m.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %.6g\n", n, m.Values[n].Unit, m.Values[n].Value)
	}
}

// dist is one program's sample distribution of one operation class.
type dist struct {
	Min float64 `json:"min"`
	P10 float64 `json:"p10"`
	Q1  float64 `json:"q1"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	N   int     `json:"n"`
}

func distOf(xs []float64) dist {
	return dist{Min: quantile(xs, 0), P10: quantile(xs, 0.10), Q1: q1(xs), P50: median(xs), P90: quantile(xs, 0.90), N: len(xs)}
}

// row is one program's share of a workload result.
type row struct {
	Program string           `json:"program"`
	Params  map[string]int64 `json:"params"`
	// Times holds the distribution of every sampled series, in the unit
	// its name ends in (opt_ms, base_ms, request_ms, compile_ms, ...).
	Times map[string]dist `json:"times"`
	// Counts holds the exact counts: dynamic sync events of the optimized
	// and baseline runs, static sites, solver work, assignments.
	Counts map[string]int64 `json:"counts"`
}

// passResult is what one pass over one workload produced; the contract
// line is its first four fields.
type passResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Failures  []string               `json:"failures,omitempty"`
	Rows      []row                  `json:"rows,omitempty"`
	Host      *hostSample            `json:"host,omitempty"`
}

// hostSample is the calibration loop's view of the host during one pass.
type hostSample struct {
	SpinQ1US float64 `json:"spin_q1_us"`
	NoisePct float64 `json:"noise_pct"`
}

// workloadResult joins the passes that ran on one workload.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Failures  []string               `json:"failures,omitempty"`
	Rows      []row                  `json:"rows"`
	// Hosts holds each pass's calibration, keyed "end_to_end" and
	// "per_layer": the two passes run at different times.
	Hosts map[string]hostSample `json:"hosts"`
}

// resultFile is the -out file and the input of -compare.
type resultFile struct {
	Host      hostInfo         `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

type hostInfo struct {
	P         int    `json:"p"`
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
}
