package metrics

import (
	"bufio"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/telemetry"
)

// parseExposition is a strict parser for the Prometheus text exposition
// format (version 0.0.4), covering the subset this package emits: # HELP
// and # TYPE comments, then samples `name{labels} value`. It returns the
// sample values keyed by `name{labels}` and fails the test on any
// malformed line, unknown family, or sample preceding its TYPE.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	var (
		nameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
		labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"$`)
		samples  = map[string]float64{}
		typed    = map[string]string{}
		helpSeen = map[string]bool{}
	)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !nameRe.MatchString(parts[0]) {
				t.Fatalf("malformed HELP line: %q", line)
			}
			helpSeen[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || !nameRe.MatchString(parts[0]) {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[1] {
			case "gauge", "counter", "summary", "histogram", "untyped":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			typed[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		// Sample: name[{labels}] value
		rest := line
		name := rest
		labels := ""
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			name = rest[:i]
			j := strings.IndexByte(rest, '}')
			if j < i {
				t.Fatalf("unbalanced braces: %q", line)
			}
			labels = rest[i+1 : j]
			rest = name + rest[j+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line: %q", line)
		}
		if !nameRe.MatchString(fields[0]) {
			t.Fatalf("bad metric name in %q", line)
		}
		if typed[fields[0]] == "" {
			t.Fatalf("sample %q precedes its # TYPE", line)
		}
		if !helpSeen[fields[0]] {
			t.Fatalf("sample %q has no # HELP", line)
		}
		for _, l := range strings.Split(labels, ",") {
			if l != "" && !labelRe.MatchString(l) {
				t.Fatalf("bad label %q in %q", l, line)
			}
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		key := fields[0]
		if labels != "" {
			key += "{" + labels + "}"
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = v
	}
	return samples
}

// observeProfile folds a run that hands over only its profile into ag:
// the summary is the profile's own identity and an OK outcome.
func observeProfile(ag *telemetry.Aggregator, p *profile.Profile) {
	ag.Observe(telemetry.RunSummary{Program: p.Program, Mode: p.Mode, Workers: p.Workers,
		Backend: p.Backend, Outcome: telemetry.OutcomeOK}, p, nil)
}

// testProfile builds a two-site profile for the exposition tests.
func testProfile() *profile.Profile {
	p := &profile.Profile{
		Schema: profile.Schema, Program: "jacobi2d",
		ProgramHash: "a", ScheduleHash: "b",
		Mode: "opt", Workers: 4, Backend: "chan", Runs: 2, SpanNS: 1000,
	}
	s1 := profile.SiteProfile{Site: 1, Kind: "barrier", Ops: 20, Episodes: 10,
		SlackSumNS: 400, MaxSlackNS: 90, LastByWorker: []int64{1, 9}}
	for i := 0; i < 20; i++ {
		s1.Wait.Add(time.Duration(1000 + i))
	}
	s2 := profile.SiteProfile{Site: 4, Kind: "counter", Ops: 8}
	for i := 0; i < 8; i++ {
		s2.Wait.Add(time.Duration(500 + i))
	}
	p.Sites = []profile.SiteProfile{s1, s2}
	return p
}

// siteKey assembles the full label set a per-site sample carries now that
// site families are grouped by kernel identity.
func siteKey(p *profile.Profile, family string, site int, kind, extra string) string {
	l := fmt.Sprintf(`group="%s",program="%s",mode="%s",p="%d",site="%d",kind="%s"`,
		groupTag(p.GroupKey()), p.Program, p.Mode, p.Workers, site, kind)
	if extra != "" {
		l += "," + extra
	}
	return family + "{" + l + "}"
}

// TestHandlerServesValidExposition is the acceptance test: the endpoint
// must serve text exposition that a strict parser accepts, carrying the
// expvar gauges, the process run counters, and the per-site aggregated
// summaries.
func TestHandlerServesValidExposition(t *testing.T) {
	expvar.Publish("metrics_test_gauge", expvar.Func(func() any {
		return map[string]any{"alpha": 3, "beta_ns": 4500}
	}))
	old := expvarGauges
	expvarGauges = append([]string{"metrics_test_gauge"}, old...)
	defer func() { expvarGauges = old }()

	p := testProfile()
	ag := telemetry.New(8)
	observeProfile(ag, p)

	srv := httptest.NewServer(HandlerFor(ag))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q lacks exposition version", ct)
	}
	samples := parseExposition(t, readAll(t, resp))

	gl := fmt.Sprintf(`group="%s",program="jacobi2d",mode="opt",p="4"`, groupTag(p.GroupKey()))
	for key, want := range map[string]float64{
		"spmd_metrics_test_gauge_alpha":                                  3,
		"spmd_metrics_test_gauge_beta_ns":                                4500,
		"spmd_runs_total":                                                1,
		"spmd_run_errors_total":                                          0,
		siteKey(p, "spmd_site_sync_ops", 1, "barrier", ""):               10,
		siteKey(p, "spmd_site_sync_ops", 4, "counter", ""):               4,
		siteKey(p, "spmd_site_barrier_episodes", 1, "barrier", ""):       5,
		siteKey(p, "spmd_site_barrier_slack_ns_total", 1, "barrier", ""): 200,
		"spmd_group_runs{" + gl + "}":                                    1,
		"spmd_profile_runs{" + gl + "}":                                  2,
	} {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	if _, ok := samples[siteKey(p, "spmd_site_wait_ns", 1, "barrier", `quantile="0.99"`)]; !ok {
		t.Error("missing p99 wait quantile sample")
	}
	if _, ok := samples[siteKey(p, "spmd_site_barrier_episodes", 4, "counter", "")]; ok {
		t.Error("counter site must not report barrier episodes")
	}
}

// TestWritePromDeterministic: two scrapes of identical state are
// byte-identical (the no-map-order guarantee).
func TestWritePromDeterministic(t *testing.T) {
	ag := telemetry.New(8)
	observeProfile(ag, testProfile())
	other := testProfile()
	other.Program = "stencil9"
	observeProfile(ag, other)
	var a, b strings.Builder
	WritePromFor(&a, ag)
	WritePromFor(&b, ag)
	if a.String() != b.String() {
		t.Fatalf("scrapes differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestWritePromEmptyAggregator: an aggregator with no observed runs still
// yields a valid (counters + expvar only) exposition.
func TestWritePromEmptyAggregator(t *testing.T) {
	var sb strings.Builder
	WritePromFor(&sb, telemetry.New(8))
	parseExposition(t, sb.String())
	if strings.Contains(sb.String(), "spmd_site_") {
		t.Fatal("site families emitted with no profile observed")
	}
}

// TestRollupAccumulatesAcrossRuns is the regression test for the old
// last-writer-wins bug: two pooled runs handing over profiles one after
// the other must BOTH be visible in the next scrape (summed ops), not
// just the second one.
func TestRollupAccumulatesAcrossRuns(t *testing.T) {
	ag := telemetry.New(8)
	p1, p2 := testProfile(), testProfile()
	observeProfile(ag, p1)
	observeProfile(ag, p2)
	var sb strings.Builder
	WritePromFor(&sb, ag)
	samples := parseExposition(t, sb.String())
	// 40 ops over 4 merged runs: the per-run value survives, but the
	// rollup now carries both runs (profile_runs = 4, not 2).
	gl := fmt.Sprintf(`group="%s",program="jacobi2d",mode="opt",p="4"`, groupTag(p1.GroupKey()))
	if got := samples["spmd_profile_runs{"+gl+"}"]; got != 4 {
		t.Fatalf("profile_runs = %v, want 4 (both runs aggregated)", got)
	}
	if got := samples[siteKey(p1, "spmd_site_sync_ops", 1, "barrier", "")]; got != 10 {
		t.Fatalf("per-run sync ops = %v, want 10", got)
	}
}

// TestConcurrentObserveAndScrape drives observers and scrapers in
// parallel; run under -race this proves the aggregator path has no data
// race (the old atomic "latest profile" slot raced semantically: each
// writer silently discarded the others' runs).
func TestConcurrentObserveAndScrape(t *testing.T) {
	ag := telemetry.New(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				observeProfile(ag, testProfile())
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var sb strings.Builder
				WritePromFor(&sb, ag)
			}
		}()
	}
	wg.Wait()
	var sb strings.Builder
	WritePromFor(&sb, ag)
	samples := parseExposition(t, sb.String())
	if got := samples["spmd_runs_total"]; got != 100 {
		t.Fatalf("runs_total = %v, want 100 (no observation lost)", got)
	}
	p := testProfile()
	gl := fmt.Sprintf(`group="%s",program="jacobi2d",mode="opt",p="4"`, groupTag(p.GroupKey()))
	if got := samples["spmd_profile_runs{"+gl+"}"]; got != 200 {
		t.Fatalf("profile_runs = %v, want 200 (100 profiles x Runs=2)", got)
	}
}

// TestAggregatedQuantilesMatchMerge pins the acceptance contract: the
// aggregator's per-group rollup over N observed profiles is the same
// merge `spmdprof merge` computes over the N profile files, so the
// /metrics wait quantiles equal the offline-merged ones exactly.
func TestAggregatedQuantilesMatchMerge(t *testing.T) {
	ag := telemetry.New(16)
	var all []*profile.Profile
	for i := 0; i < 10; i++ {
		p := testProfile()
		// Vary the wait distribution per run so the equality is not
		// trivially about identical inputs.
		for j := 0; j <= i; j++ {
			p.Sites[0].Wait.Add(time.Duration(100 * (i + j + 1)))
		}
		all = append(all, p)
		observeProfile(ag, p)
	}
	want, err := profile.Merge(all...)
	if err != nil {
		t.Fatal(err)
	}
	snap := ag.Snapshot()
	var got *profile.Profile
	for i := range snap.Groups {
		if snap.Groups[i].Program == "jacobi2d" {
			got = snap.Groups[i].Profile
		}
	}
	if got == nil {
		t.Fatal("no rollup profile for jacobi2d group")
	}
	if got.Runs != want.Runs {
		t.Fatalf("rollup runs = %d, want %d", got.Runs, want.Runs)
	}
	for i := range want.Sites {
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if g, w := got.Sites[i].Wait.Quantile(q), want.Sites[i].Wait.Quantile(q); g != w {
				t.Fatalf("site %d q%v: aggregator %d != merge %d",
					want.Sites[i].Site, q, g, w)
			}
		}
		if got.Sites[i].Ops != want.Sites[i].Ops {
			t.Fatalf("site %d ops: aggregator %d != merge %d",
				want.Sites[i].Site, got.Sites[i].Ops, want.Sites[i].Ops)
		}
	}
}

// TestHealthEndpoint: a healthy aggregator answers 200 with "ok"; an
// aggregator whose most recent run failed answers 503 "degraded".
func TestHealthEndpoint(t *testing.T) {
	ag := telemetry.New(8)
	ag.Observe(telemetry.RunSummary{Program: "jacobi2d", Outcome: telemetry.OutcomeOK}, nil, nil)
	srv := httptest.NewServer(DebugMux(ag))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthy: status=%d %q, want 200 ok", resp.StatusCode, h.Status)
	}
	if h.Runs != 1 {
		t.Fatalf("healthz runs = %d, want 1", h.Runs)
	}

	ag.Observe(telemetry.RunSummary{Program: "jacobi2d", Outcome: telemetry.OutcomeError, Error: "boom"}, nil, nil)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("after failure: status=%d %q, want 503 degraded", resp.StatusCode, h.Status)
	}
}

// TestRunsAndSpansEndpoints: /runs returns the ring newest first and
// honors ?n=; /spans/<id> round-trips the envelope-wrapped export and
// 404s on unknown ids.
func TestRunsAndSpansEndpoints(t *testing.T) {
	ag := telemetry.New(8)
	tr := telemetry.NewTrace()
	tr.SetProgram("jacobi2d")
	sp := tr.Start(tr.Root(), "execute")
	tr.End(sp)
	tr.Finish()
	exp := tr.Export()
	ag.Observe(telemetry.RunSummary{TraceID: tr.ID(), Program: "jacobi2d", Outcome: telemetry.OutcomeOK}, nil, exp)
	ag.Observe(telemetry.RunSummary{TraceID: "ffffffffffffffff", Program: "stencil9", Outcome: telemetry.OutcomeOK}, nil, nil)

	srv := httptest.NewServer(DebugMux(ag))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/runs?n=1")
	if err != nil {
		t.Fatal(err)
	}
	var runs []telemetry.RunSummary
	if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(runs) != 1 || runs[0].Program != "stencil9" {
		t.Fatalf("/runs?n=1 = %+v, want newest run (stencil9)", runs)
	}

	resp, err = http.Get(srv.URL + "/spans/" + tr.ID())
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/spans/%s = %d: %s", tr.ID(), resp.StatusCode, body)
	}
	if !strings.Contains(body, `"spmdrun-spans"`) || !strings.Contains(body, tr.ID()) {
		t.Fatalf("span payload missing envelope tool or trace id: %s", body)
	}

	resp, err = http.Get(srv.URL + "/spans/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id = %d, want 404", resp.StatusCode)
	}
}

// TestServerGracefulShutdown: Shutdown drains an in-flight scrape instead
// of cutting the connection (the -metrics-addr listener must not drop a
// scrape that raced the process exiting).
func TestServerGracefulShutdown(t *testing.T) {
	ag := telemetry.New(8)
	observeProfile(ag, testProfile())
	s, err := ServeAggregator("127.0.0.1:0", ag)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	// Begin Shutdown while the response body is still unread: the drain
	// must let this scrape finish.
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(testContext(t)) }()
	body := readAll(t, resp)
	parseExposition(t, body)
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

func testContext(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	buf := make([]byte, 0, 1<<20)
	sc.Buffer(buf, 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return sb.String()
}
