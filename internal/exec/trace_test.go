package exec_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/suite"
	"repro/internal/syncopt"
	"repro/internal/synctrace"
)

// leg is one of a compilation's two schedules with its runner constructor:
// the schedule decides how its runner runs it, fork-join or SPMD.
type leg struct {
	label     string
	sched     *syncopt.Schedule
	newRunner func(exec.Config) (*core.Runner, error)
}

// legs returns c's optimized schedule, then its fork-join baseline.
func legs(c *core.Compiled) []leg {
	return []leg{{"opt", c.Schedule, c.NewRunner}, {"base", c.Baseline, c.NewBaselineRunner}}
}

// modeOf is the execution model a runner of the baseline (or the optimized)
// schedule must report.
func modeOf(baseline bool) exec.Mode {
	if baseline {
		return exec.ForkJoin
	}
	return exec.SPMD
}

// traceRun compiles a suite kernel and runs its baseline or optimized
// schedule with tracing enabled.
func traceRun(t *testing.T, kernel string, workers int, baseline bool, cfg exec.Config) *core.Result {
	t.Helper()
	k, err := suite.Get(kernel)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	cfg.Params = k.Params
	cfg.Trace = true
	newRunner := c.NewRunner
	if baseline {
		newRunner = c.NewBaselineRunner
	}
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode() != modeOf(baseline) {
		t.Fatalf("%s: runner mode %v, want %v", kernel, r.Mode(), modeOf(baseline))
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("%s: %v", kernel, err)
	}
	return res
}

// TestTraceChromeSchema is the acceptance check behind
// `spmdrun -kernel jacobi2d -p 8 -trace out.json`: both execution modes
// must export trace-event JSON that parses and satisfies the format's
// schema (one track per worker, legal phases, µs timestamps).
func TestTraceChromeSchema(t *testing.T) {
	for _, baseline := range []bool{true, false} {
		t.Run(modeOf(baseline).String(), func(t *testing.T) {
			res := traceRun(t, "jacobi2d", 8, baseline, exec.Config{})
			if res.Trace == nil {
				t.Fatal("Result.Trace nil with Config.Trace set")
			}
			var buf bytes.Buffer
			if err := res.Trace.WriteChromeTrace(&buf, nil); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("trace is not valid JSON: %v", err)
			}
			threads := map[float64]bool{}
			var spans int
			for _, e := range doc.TraceEvents {
				name, _ := e["name"].(string)
				ph, _ := e["ph"].(string)
				tid, tidOK := e["tid"].(float64)
				ts, tsOK := e["ts"].(float64)
				if name == "" || !tidOK || !tsOK || ts < 0 || tid < 0 || tid >= 8 {
					t.Fatalf("malformed event: %v", e)
				}
				switch ph {
				case "M":
				case "X":
					spans++
					threads[tid] = true
					if dur, ok := e["dur"].(float64); !ok || dur < 0 {
						t.Fatalf("X event without dur: %v", e)
					}
				case "i":
					threads[tid] = true
				default:
					t.Fatalf("illegal phase %q in %v", ph, e)
				}
			}
			if spans == 0 {
				t.Error("trace has no wait spans")
			}
			// jacobi2d synchronizes on every worker in both modes.
			if len(threads) != 8 {
				t.Errorf("events on %d worker tracks, want 8", len(threads))
			}
		})
	}
}

// TestTracePseudoSites pins the recorder's site table on 21 kernels in
// both modes: the scheduled sites, then the fork-join dispatch, then one
// wavefront relay per StepWavefront step of the lowered program, in step
// order — no relay that no step runs.
func TestTracePseudoSites(t *testing.T) {
	for _, k := range append(suite.Kernels(), suite.IrregularKernels()...) {
		c, err := core.Compile(k.Source, core.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", k.Name, err)
		}
		for _, l := range legs(c) {
			r, err := l.newRunner(exec.Config{Workers: 2, Params: clampParams(k.Params), Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run()
			if err != nil {
				t.Fatalf("%s %s: %v", k.Name, l.label, err)
			}
			want := []string{"fork-join dispatch"}
			for _, st := range l.sched.Lower().Steps {
				if st.Kind == syncopt.StepWavefront {
					want = append(want, "wavefront relay "+st.Loop.Index)
				}
			}
			var got []string
			for id := r.NumSyncSites(); ; id++ {
				name := res.Trace.SiteName(int32(id))
				if name == "(unsited)" { // past the last registered site
					break
				}
				got = append(got, name)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s %s: pseudo-sites %q, want %q", k.Name, l.label, got, want)
			}
		}
	}
}

// key is the timing-free signature of one event.
type key struct {
	kind synctrace.Kind
	site int32
	arg  int64
}

func signature(rec *synctrace.Recorder, w int) []key {
	var out []key
	for _, e := range rec.WorkerEvents(w) {
		out = append(out, key{e.Kind, e.Site, e.Arg})
	}
	return out
}

// TestTraceDeterminism pins the tracer's run-to-run stability under
// adversarial timing: with chaos injection active (and the sanitizer
// auditing the same run), each worker's event *sequence* — kinds, site
// attribution, args, in order — must be identical across runs; only
// timestamps may differ. Four kernels cover barrier, counter, neighbor
// and wavefront synchronization.
func TestTraceDeterminism(t *testing.T) {
	kernels := []string{"jacobi1d", "redblack", "dotchain", "guardedpivot"}
	const workers = 4
	for _, name := range kernels {
		t.Run(name, func(t *testing.T) {
			cfg := exec.Config{ChaosSeed: 7, Sanitize: true, WatchdogTimeout: 60 * time.Second}
			a := traceRun(t, name, workers, false, cfg)
			b := traceRun(t, name, workers, false, cfg)
			for _, res := range []*core.Result{a, b} {
				if res.Sanitizer == nil || !res.Sanitizer.Clean() {
					t.Fatalf("sanitizer not clean with tracer enabled:\n%v", res.Sanitizer)
				}
			}
			for w := 0; w < workers; w++ {
				sa, sb := signature(a.Trace, w), signature(b.Trace, w)
				if len(sa) != len(sb) {
					t.Fatalf("w%d: %d events vs %d events across identical runs", w, len(sa), len(sb))
				}
				for i := range sa {
					if sa[i] != sb[i] {
						t.Fatalf("w%d event %d differs: %+v vs %+v", w, i, sa[i], sb[i])
					}
				}
				// Site names must resolve identically too.
				for i := range sa {
					if a.Trace.SiteName(sa[i].site) != b.Trace.SiteName(sb[i].site) {
						t.Fatalf("w%d event %d: site %d names differ", w, i, sa[i].site)
					}
				}
			}
		})
	}
}

// TestPerSiteStats checks that the new per-site breakdown is consistent
// with the long-standing totals: per-site sums never exceed the totals,
// and every scheduled barrier/counter/neighbor event lands in some site's
// bucket (wavefront relays are deliberately unsited).
func TestPerSiteStats(t *testing.T) {
	for _, tc := range []struct {
		kernel   string
		baseline bool
	}{
		{"dotchain", true},
		{"dotchain", false},
		{"jacobi1d", false},
		{"guardedpivot", false},
	} {
		t.Run(fmt.Sprintf("%s/%s", tc.kernel, modeOf(tc.baseline)), func(t *testing.T) {
			res := traceRun(t, tc.kernel, 4, tc.baseline, exec.Config{})
			st := res.Stats
			if len(st.PerSite) == 0 {
				t.Fatal("no per-site stats recorded")
			}
			var sum struct {
				Barriers, CounterIncrs, CounterWaits, NeighborWaits int64
			}
			for id, sc := range st.PerSite {
				if id < 1 {
					t.Errorf("per-site key %d not 1-based", id)
				}
				sum.Barriers += sc.Barriers
				sum.CounterIncrs += sc.CounterIncrs
				sum.CounterWaits += sc.CounterWaits
				sum.NeighborWaits += sc.NeighborWaits
			}
			// Barriers, counters: every event is at a scheduled site, so
			// the site sums must equal the totals exactly.
			if sum.Barriers != st.Barriers {
				t.Errorf("site barriers = %d, total %d", sum.Barriers, st.Barriers)
			}
			if sum.CounterIncrs != st.CounterIncrs || sum.CounterWaits != st.CounterWaits {
				t.Errorf("site counters = %d/%d, totals %d/%d",
					sum.CounterIncrs, sum.CounterWaits, st.CounterIncrs, st.CounterWaits)
			}
			// Neighbor waits include unsited wavefront relays: sites
			// account for at most the total.
			if sum.NeighborWaits > st.NeighborWaits {
				t.Errorf("site neighbor-waits = %d > total %d", sum.NeighborWaits, st.NeighborWaits)
			}
			// The stable String() must not mention per-site data.
			if want := fmt.Sprintf(
				"barriers=%d counters(incr=%d,wait=%d) neighbor-waits=%d dispatches=%d",
				st.Barriers, st.CounterIncrs, st.CounterWaits, st.NeighborWaits,
				st.Dispatches); st.String() != want {
				t.Errorf("String() = %q, want %q", st.String(), want)
			}
		})
	}
}

// TestTraceOffNoRecorder pins that tracing stays off by default.
func TestTraceOffNoRecorder(t *testing.T) {
	k, err := suite.Get("jacobi1d")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewRunner(exec.Config{Workers: 2, Params: k.Params})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("Result.Trace non-nil without Config.Trace")
	}
	if len(res.Stats.PerSite) == 0 {
		t.Error("per-site stats should be collected even without tracing")
	}
}

// TestTraceSummaryEndToEnd exercises Summarize on a real barrier-heavy
// run: totals must reconcile with the recorder and imbalance profiles
// must exist for barrier sites.
func TestTraceSummaryEndToEnd(t *testing.T) {
	res := traceRun(t, "dotchain", 4, true, exec.Config{})
	s := synctrace.Summarize(res.Trace)
	if s.Events != res.Trace.Recorded() {
		t.Errorf("summary events %d != recorded %d", s.Events, res.Trace.Recorded())
	}
	if s.ByKind[synctrace.EvBarrier].Count != 4*res.Stats.Barriers {
		t.Errorf("barrier events %d, want %d (P×episodes)",
			s.ByKind[synctrace.EvBarrier].Count, 4*res.Stats.Barriers)
	}
	if len(s.Imbalance) == 0 {
		t.Error("no barrier imbalance profiles for a barrier-heavy run")
	}
	for _, im := range s.Imbalance {
		if im.Straggler < 0 || im.Straggler >= 4 || im.Episodes <= 0 {
			t.Errorf("bad imbalance entry %+v", im)
		}
	}
	if s.TotalWait() <= 0 {
		t.Error("total wait is zero in a synchronizing run")
	}
}

// TestTracedRunPaysForItsEventsOnly bounds what tracing a small run may
// allocate: the recorder's rings grow with the events a worker records, so
// a run of a few dozen sync events costs kilobytes — not the 2 MiB per
// worker that zeroing DefaultCap events up front used to.
func TestTracedRunPaysForItsEventsOnly(t *testing.T) {
	k, err := suite.Get("jacobi1d")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewRunner(exec.Config{Workers: 2, Trace: true, FixedWidth: true,
		Params: map[string]int64{"N": 64, "T": 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil { // warm-up: pooled team, lowered closures
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := r.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Recorded() == 0 {
		t.Fatal("traced run recorded no events")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("traced run of %d events allocated %d bytes, want < 64 KiB", res.Trace.Recorded(), got)
	}
}
