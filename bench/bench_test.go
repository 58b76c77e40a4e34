package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestQuickSmoke runs both passes of every workload in -quick form (one
// round, one pair, the two cheapest programs) and checks that every
// metric BENCHMARK.json declares comes out with its unit and that no
// operation fails. It asserts nothing about speed.
func TestQuickSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	dir := t.TempDir()
	for i := range workloads {
		wl := &workloads[i]
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q (or their reasons differ)",
				i, spec.Workloads[i].Name, wl.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runPass(spec, wl, passOptions{seed: 1, seconds: 1, traced: traced, quick: true, traceDir: dir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", wl.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", wl.name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not reported", wl.name, traced, m.Name)
				} else if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: metric %s = %v %q, want a finite value in %q", wl.name, m.Name, got.Value, got.Unit, m.Unit)
				}
				if !traced && ok && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, m.Name, got.Value)
				}
			}
		}
		raw, err := os.ReadFile(filepath.Join(dir, "trace."+wl.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
			t.Fatalf("%s: trace file: %d spans, %v", wl.name, len(spans), err)
		}
		for i, sp := range spans {
			if sp.Parent >= i || sp.EndNS < sp.StartNS || sp.Workload != wl.name {
				t.Fatalf("%s: span %d malformed: %+v", wl.name, i, sp)
			}
		}
	}
}

func TestQuantilesAndMeans(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !sort.Float64sAreSorted([]float64{xs[1], xs[3]}) || xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if got := q1([]float64{10, 20}); got != 12.5 {
		t.Errorf("q1 interpolates: got %v, want 12.5", got)
	}
	if got := low([]float64{10, 20}); got != 11 {
		t.Errorf("the lower decile interpolates: got %v, want 11", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean skips a program without samples: got %v, want 4", got)
	}
	if quantile(nil, 0.5) != 0 || geomean(nil) != 0 || mean(nil) != 0 {
		t.Error("empty input must reduce to 0")
	}
}

func TestQuotaCarriesRemainder(t *testing.T) {
	q := quota{rate: 0.4}
	total := 0
	for round := 0; round < 10; round++ {
		n := q.take()
		if n > 1 {
			t.Fatalf("round %d took %d operations at 0.4 per round", round, n)
		}
		total += n
	}
	if total != 4 {
		t.Errorf("ten rounds at 0.4 per round ran %d operations, want 4", total)
	}
	q = quota{rate: 9.75}
	total = 0
	for round := 0; round < 4; round++ {
		total += q.take()
	}
	if total != 39 {
		t.Errorf("four rounds at 9.75 per round ran %d operations, want 39", total)
	}
}

// TestEstimatorOnSyntheticSamples replays the sampling plan (shuffled
// rounds, pairs with the order flipped every pair) on a synthetic host:
// whichever side runs second in a pair is 5% slower, and three samples in
// ten carry one-sided additive noise. The lower decile must recover the
// clean times and the flip must cancel the order bias that a fixed order
// would keep.
func TestEstimatorOnSyntheticSamples(t *testing.T) {
	trueOpt := []float64{10, 2, 40}
	trueBase := []float64{12, 2.4, 48}
	simulate := func(flip bool) (optLow, baseLow, optMean []float64) {
		rng := rand.New(rand.NewSource(7))
		n := len(trueOpt)
		opt, base := make([][]float64, n), make([][]float64, n)
		pairs := make([]int, n)
		sample := func(clean float64, second bool) float64 {
			if second {
				clean *= 1.05
			}
			if rng.Float64() < 0.3 {
				clean += rng.ExpFloat64() * 5
			}
			return clean
		}
		for round := 0; round < 12; round++ {
			order := roundOrder(rng, n)
			seen := map[int]bool{}
			for _, k := range order {
				seen[k] = true
				for j := 0; j < 8; j++ {
					first := !flip || optFirst(pairs[k])
					opt[k] = append(opt[k], sample(trueOpt[k], !first))
					base[k] = append(base[k], sample(trueBase[k], first))
					pairs[k]++
				}
			}
			if len(seen) != n {
				t.Fatalf("round %d visited %d of %d programs", round, len(seen), n)
			}
		}
		for k := range opt {
			optLow = append(optLow, low(opt[k]))
			baseLow = append(baseLow, low(base[k]))
			optMean = append(optMean, mean(opt[k]))
		}
		return
	}
	optLow, baseLow, optMean := simulate(true)
	for k := range trueOpt {
		if r := optLow[k] / trueOpt[k]; r < 0.999 || r > 1.03 {
			t.Errorf("program %d: lower decile %.3f of a clean time %.3f", k, optLow[k], trueOpt[k])
		}
	}
	if r := geomean(baseLow) / geomean(optLow); math.Abs(r-1.2) > 0.012 {
		t.Errorf("flipped pairs: base over opt = %.4f, want 1.2 within 1%%", r)
	}
	if r := geomean(optMean) / geomean(trueOpt); r < 1.05 {
		t.Errorf("the mean should show the injected noise (ratio %.3f); the test no longer separates the lower decile from it", r)
	}
	optLow, baseLow, _ = simulate(false)
	if r := geomean(baseLow) / geomean(optLow); r < 1.24 {
		t.Errorf("fixed order: base over opt = %.4f, expected the 5%% order bias to show", r)
	}
	for i := 0; i < 6; i++ {
		if optFirst(i) == optFirst(i+1) {
			t.Errorf("pairs %d and %d run in the same order", i, i+1)
		}
	}
}

func TestInputsComeFromTheSeed(t *testing.T) {
	for _, wl := range workloads {
		a, err := wl.programs(3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := wl.programs(3)
		c, _ := wl.programs(4)
		differs := false
		ra, rb, rc := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3)), rand.New(rand.NewSource(4))
		for i := range a {
			pa, pb, pc := drawParams(ra, a[i]), drawParams(rb, b[i]), drawParams(rc, c[i])
			if a[i].source != b[i].source {
				t.Errorf("%s/%s: one seed gave two sources", wl.name, a[i].name)
			}
			for name, v := range pa {
				if pb[name] != v {
					t.Errorf("%s/%s: one seed drew %s=%d and %d", wl.name, a[i].name, name, v, pb[name])
				}
				nominal := a[i].nominal[name]
				if d := v - nominal; a[i].name != "mg2level" && (d > nominal/100 || -d > nominal/100) {
					t.Errorf("%s/%s: %s=%d is outside ±1%% of %d", wl.name, a[i].name, name, v, nominal)
				}
				differs = differs || pc[name] != v || a[i].source != c[i].source
			}
			if a[i].name == "mg2level" && pa["N"] != 2*pa["M"] {
				t.Errorf("mg2level drew N=%d, M=%d; N must be 2M", pa["N"], pa["M"])
			}
		}
		if !differs {
			t.Errorf("%s: seeds 3 and 4 gave identical inputs", wl.name)
		}
	}
}

func TestCompareAgainstBounds(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(runMS, noisePct, barriers float64) *resultFile {
		return &resultFile{Workloads: []workloadResult{{Workload: "sync_p2p",
			Hosts: map[string]hostSample{"end_to_end": {SpinQ1US: 200, NoisePct: noisePct}},
			Metrics: map[string]metricValue{
				"op_ms":           {Value: runMS, Unit: "ms"},
				"spmdrt.barriers": {Value: barriers, Unit: "count"},
			}}}}
	}
	bound, _ := spec.find("op_ms")
	worse := 10 * (1 + bound.Bound + 0.01)
	for _, c := range []struct {
		name string
		a, b *resultFile
		want int
	}{
		{"within the bound", mk(10, 1, 4), mk(10*(1+bound.Bound/2), 1, 4), 0},
		{"faster", mk(10, 1, 4), mk(5, 1, 4), 0},
		{"beyond the bound", mk(10, 1, 4), mk(worse, 1, 4), 1},
		{"beyond the bound on a noisy host", mk(10, 1, 4), mk(worse, 100*bound.Bound+1, 4), 0},
		{"an exact count moved", mk(10, 1, 4), mk(10, 1, 5), 1},
	} {
		if got := compareResults(spec, c.a, c.b, io.Discard); got != c.want {
			t.Errorf("%s: compare returned %d, want %d", c.name, got, c.want)
		}
	}
}
