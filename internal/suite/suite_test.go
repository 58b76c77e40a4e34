package suite

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/syncopt"
)

// smallParams shrinks a kernel's input so the full suite runs fast in CI.
func smallParams(k Kernel) map[string]int64 {
	p := map[string]int64{}
	for name, v := range k.Params {
		switch name {
		case "T":
			p[name] = 3
			continue
		}
		if v > 48 {
			v = 48
		}
		p[name] = v
	}
	// Keep derived relations (mg2level needs N = 2*M).
	if _, ok := p["M"]; ok && k.Name == "mg2level" {
		p["N"], p["M"] = 48, 24
	}
	if k.Name == "pipeline" || k.Name == "erlebacher" {
		p["N"], p["M"] = 48, 12
	}
	return p
}

func TestAllKernelsCompileAndValidate(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			c, err := core.Compile(k.Source, core.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			distributed := len(c.Parallelized.Parallel) + len(c.Plan.Wavefront)
			if distributed == 0 {
				t.Errorf("%s: no distributed loops found", k.Name)
			}
		})
	}
}

func TestAllKernelsMeasureCorrect(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			m, err := Measure(k, MeasureOptions{Workers: 4, Params: smallParams(k)})
			if err != nil {
				t.Fatal(err)
			}
			if m.DynOpt.Barriers > m.DynBase.Barriers {
				t.Errorf("optimized executed more barriers (%d) than base (%d)",
					m.DynOpt.Barriers, m.DynBase.Barriers)
			}
		})
	}
}

// TestExpectedShape pins the qualitative outcome per kernel — who gets
// orders-of-magnitude elimination, who keeps barriers — the shape the
// paper's evaluation reports.
func TestExpectedShape(t *testing.T) {
	expect := map[string]struct {
		zeroBarriers bool // all dynamic barriers eliminated
		someBarriers bool // barriers must remain (reductions, transposes)
	}{
		"jacobi1d":     {zeroBarriers: true},
		"jacobi2d":     {zeroBarriers: true},
		"stencil9":     {zeroBarriers: true},
		"shallow":      {zeroBarriers: true},
		"tred2like":    {zeroBarriers: true},
		"lulike":       {zeroBarriers: true},
		"guardedpivot": {zeroBarriers: true},
		"pipeline":     {zeroBarriers: true},
		"erlebacher":   {zeroBarriers: true},
		"matmul":       {zeroBarriers: false},
		"dotchain":     {someBarriers: true},
		"mg2level":     {someBarriers: true},
		"adilike":      {someBarriers: true},
		"tomcatvlike":  {someBarriers: true},
	}
	for _, k := range Kernels() {
		e, ok := expect[k.Name]
		if !ok {
			continue
		}
		k, e := k, e
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			m, err := Measure(k, MeasureOptions{Workers: 4, Params: smallParams(k)})
			if err != nil {
				t.Fatal(err)
			}
			if e.zeroBarriers && m.DynOpt.Barriers != 0 {
				t.Errorf("expected zero barriers, got %d (base %d)",
					m.DynOpt.Barriers, m.DynBase.Barriers)
			}
			if e.someBarriers && m.DynOpt.Barriers == 0 {
				t.Errorf("expected surviving barriers, got none (base %d)", m.DynBase.Barriers)
			}
		})
	}
}

func TestAblationNoReplacement(t *testing.T) {
	k, _ := Get("jacobi1d")
	m, err := Measure(k, MeasureOptions{
		Workers: 4,
		Params:  smallParams(k),
		Sync:    syncopt.Options{NoReplacement: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.DynOpt.NeighborWaits != 0 || m.DynOpt.CounterIncrs != 0 {
		t.Errorf("replacement disabled but neighbor/counter events happened: %+v", m.DynOpt)
	}
	if m.DynOpt.Barriers == 0 {
		t.Error("replacement disabled should leave dynamic barriers")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nonesuch"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestTablePrinters(t *testing.T) {
	var ms []Metrics
	for _, name := range []string{"jacobi1d", "dotchain"} {
		k, _ := Get(name)
		m, err := Measure(k, MeasureOptions{Workers: 2, Params: smallParams(k)})
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	var sb strings.Builder
	Table1(&sb, ms)
	Table2(&sb, ms)
	Table3(&sb, ms, nil)
	Figure3(&sb, ms)
	out := sb.String()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "MEAN", "jacobi1d", "Figure 3", "|"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

func TestFigure1Runs(t *testing.T) {
	var sb strings.Builder
	Figure1(&sb, []int{1, 2, 4}, 50)
	if !strings.Contains(sb.String(), "Figure 1") || !strings.Contains(sb.String(), "dissemination") {
		t.Errorf("figure 1 output:\n%s", sb.String())
	}
}

func TestTable4Runs(t *testing.T) {
	// Table4 reads standard inputs from the registry; keep the test fast by
	// running its row helper on one kernel with shrunk params.
	k, _ := Get("jacobi1d")
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := elapsedBaseVsOpt(c, smallParams(k), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.A) != 3 || len(cmp.B) != 3 || cmp.MedianA <= 0 || cmp.MedianB <= 0 {
		t.Fatalf("bad comparison: %+v", cmp)
	}
}

func TestBarrierReductionMath(t *testing.T) {
	m := Metrics{}
	m.DynBase.Barriers = 100
	m.DynOpt.Barriers = 25
	if got := m.BarrierReduction(); got != 0.75 {
		t.Errorf("reduction = %v", got)
	}
	m.DynBase.Barriers = 0
	if got := m.BarrierReduction(); got != 0 {
		t.Errorf("zero-base reduction = %v", got)
	}
}
