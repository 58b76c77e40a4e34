// Package metrics renders the process's observability surfaces and hosts
// the debug server behind `spmdrun -metrics-addr` (and, per ROADMAP item
// 4, the future `barrierd` scrape endpoint):
//
//   - /metrics — Prometheus text exposition (version 0.0.4): the expvar
//     gauges the runtime publishes ("team_pool", "barrier_analysis"),
//     process-wide run counters, and per-kernel-group per-site summaries
//     aggregated across every observed run (telemetry.Aggregator rollups,
//     not a last-run gauge).
//   - /healthz — pool + watchdog health as JSON (200 ok / 503 degraded).
//   - /runs — the ring buffer of recent run summaries with trace ids.
//   - /spans/<trace-id> — one run's span export (envelope-wrapped).
//   - /debug/vars — expvar's standard handler.
//
// Output is deterministic for fixed state: metric families sorted by
// name, groups by key, label sets by site id, so two scrapes of identical
// state are byte-identical.
package metrics

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/envelope"
	"repro/internal/profile"
	"repro/internal/spmdrt"
	"repro/internal/telemetry"
)

// namePrefix is prepended to every exported metric family.
const namePrefix = "spmd_"

// expvarGauges are the process-wide expvar surfaces exported as gauge
// families: each numeric field of the published value becomes
// spmd_<var>_<field>.
var expvarGauges = []string{"team_pool", "barrier_analysis"}

// flatten extracts the numeric leaves of an expvar value (rendered as
// JSON by expvar's contract) into name→value pairs.
func flatten(jsonText string) map[string]float64 {
	var raw map[string]json.Number
	if err := json.Unmarshal([]byte(jsonText), &raw); err != nil {
		return nil
	}
	out := make(map[string]float64, len(raw))
	for k, n := range raw {
		if v, err := n.Float64(); err == nil {
			out[k] = v
		}
	}
	return out
}

// writeFamily emits one metric family header plus its samples.
func writeFamily(w io.Writer, name, typ, help string, samples []sample) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	for _, s := range samples {
		if s.labels == "" {
			fmt.Fprintf(w, "%s %v\n", name, s.value)
		} else {
			fmt.Fprintf(w, "%s{%s} %v\n", name, s.labels, s.value)
		}
	}
}

type sample struct {
	labels string
	value  float64
}

// groupTag derives the short unique `group` label from a group key: human
// labels (program, mode, p) make series readable, the tag keeps two
// lineages of the same kernel (e.g. before/after FDO re-optimization)
// from colliding into one series.
func groupTag(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:4])
}

// WriteProm renders the full exposition from the process-wide aggregator.
func WriteProm(w io.Writer) { WritePromFor(w, telemetry.Default()) }

// WritePromFor renders the full exposition from ag: expvar gauges, run
// counters, then per-group per-site rollups.
func WritePromFor(w io.Writer, ag *telemetry.Aggregator) {
	for _, varName := range expvarGauges {
		v := expvar.Get(varName)
		if v == nil {
			continue
		}
		fields := flatten(v.String())
		names := make([]string, 0, len(fields))
		for k := range fields {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			writeFamily(w, namePrefix+varName+"_"+k, "gauge",
				fmt.Sprintf("expvar %s field %s.", varName, k),
				[]sample{{value: fields[k]}})
		}
	}

	snap := ag.Snapshot()
	writeFamily(w, namePrefix+"runs_total", "counter",
		"Runs observed by the aggregator since process start.",
		[]sample{{value: float64(snap.Runs)}})
	writeFamily(w, namePrefix+"run_errors_total", "counter",
		"Observed runs that ended in an error.",
		[]sample{{value: float64(snap.Errors)}})
	writeFamily(w, namePrefix+"run_retries_total", "counter",
		"Extra team attempts spent by the run policy (attempts beyond the first).",
		[]sample{{value: float64(snap.Retries)}})
	writeFamily(w, namePrefix+"run_seq_fallbacks_total", "counter",
		"Runs that degraded to the sequential fallback.",
		[]sample{{value: float64(snap.SeqFallbacks)}})
	writeFamily(w, namePrefix+"watchdog_trips_total", "counter",
		"Watchdog deadlock reports produced by this process.",
		[]sample{{value: float64(spmdrt.WatchdogTrips())}})

	if len(snap.Groups) == 0 {
		return
	}

	groupLabels := func(g *telemetry.GroupSnapshot) string {
		return fmt.Sprintf(`group="%s",program="%s",mode="%s",p="%d"`,
			groupTag(g.Key), g.Program, g.Mode, g.Workers)
	}
	var gruns, gelapsed []sample
	var ops, waitNS, quant, episodes, slackNS, pruns []sample
	for i := range snap.Groups {
		g := &snap.Groups[i]
		gl := groupLabels(g)
		gruns = append(gruns, sample{gl, float64(g.Runs)})
		for _, q := range []struct {
			q float64
			l string
		}{{0.5, "0.5"}, {0.99, "0.99"}} {
			gelapsed = append(gelapsed, sample{
				gl + fmt.Sprintf(`,quantile="%s"`, q.l),
				float64(g.Elapsed.Quantile(q.q)),
			})
		}
		p := g.Profile
		if p == nil || len(p.Sites) == 0 {
			continue
		}
		runs := float64(p.Runs)
		if runs == 0 {
			runs = 1
		}
		siteLabels := func(sp *profile.SiteProfile, extra string) string {
			l := gl + fmt.Sprintf(`,site="%d",kind="%s"`, sp.Site, sp.Kind)
			if extra != "" {
				l += "," + extra
			}
			return l
		}
		for j := range p.Sites {
			sp := &p.Sites[j]
			ops = append(ops, sample{siteLabels(sp, ""), float64(sp.Ops) / runs})
			waitNS = append(waitNS, sample{siteLabels(sp, ""), float64(sp.Wait.SumNS) / runs})
			for _, q := range []struct {
				q float64
				l string
			}{{0.5, "0.5"}, {0.99, "0.99"}} {
				quant = append(quant, sample{
					siteLabels(sp, fmt.Sprintf(`quantile="%s"`, q.l)),
					float64(sp.Wait.Quantile(q.q)),
				})
			}
			if sp.Episodes > 0 {
				episodes = append(episodes, sample{siteLabels(sp, ""), float64(sp.Episodes) / runs})
				slackNS = append(slackNS, sample{siteLabels(sp, ""), float64(sp.SlackSumNS) / runs})
			}
		}
		pruns = append(pruns, sample{gl, float64(p.Runs)})
	}
	writeFamily(w, namePrefix+"group_runs", "counter",
		"Runs aggregated per kernel group.", gruns)
	writeFamily(w, namePrefix+"run_elapsed_ns", "gauge",
		"Execution-latency quantiles per kernel group in nanoseconds (aggregated sketch).", gelapsed)
	if len(ops) == 0 {
		return
	}
	writeFamily(w, namePrefix+"site_sync_ops", "gauge",
		"Dynamic sync operations per run at the site (aggregated across runs).", ops)
	writeFamily(w, namePrefix+"site_wait_ns_total", "gauge",
		"Blocking wait nanoseconds per run at the site (aggregated across runs).", waitNS)
	writeFamily(w, namePrefix+"site_wait_ns", "gauge",
		"Blocking wait quantiles in nanoseconds at the site (aggregated sketch).", quant)
	if len(episodes) > 0 {
		writeFamily(w, namePrefix+"site_barrier_episodes", "gauge",
			"Barrier episodes per run at the site (aggregated across runs).", episodes)
		writeFamily(w, namePrefix+"site_barrier_slack_ns_total", "gauge",
			"Barrier arrival-slack nanoseconds per run at the site (aggregated across runs).", slackNS)
	}
	writeFamily(w, namePrefix+"profile_runs", "counter",
		"Runs folded into each group's profile rollup.", pruns)
}

// Handler serves the exposition for the process-wide aggregator.
func Handler() http.Handler { return HandlerFor(telemetry.Default()) }

// HandlerFor serves the exposition for ag at any path (mount on /metrics).
func HandlerFor(ag *telemetry.Aggregator) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePromFor(w, ag)
	})
}

// Health is the /healthz payload.
type Health struct {
	// Status is "ok" or "degraded" (degraded also returns HTTP 503, so
	// load-balancer probes need no JSON parsing).
	Status        string `json:"status"`
	UptimeNS      int64  `json:"uptime_ns"`
	Runs          int64  `json:"runs"`
	Errors        int64  `json:"errors"`
	Retries       int64  `json:"retries"`
	SeqFallbacks  int64  `json:"seq_fallbacks"`
	WatchdogTrips int64  `json:"watchdog_trips"`
	LastOutcome   string `json:"last_outcome,omitempty"`
	// Pool is the flattened "team_pool" expvar (absent before the pool's
	// first use).
	Pool map[string]float64 `json:"pool,omitempty"`
}

// healthFor judges health from the last run outcome and the pool's
// quarantine/rebuild balance.
func healthFor(ag *telemetry.Aggregator) Health {
	snap := ag.Snapshot()
	h := Health{
		Status:        "ok",
		UptimeNS:      snap.UptimeNS,
		Runs:          snap.Runs,
		Errors:        snap.Errors,
		Retries:       snap.Retries,
		SeqFallbacks:  snap.SeqFallbacks,
		WatchdogTrips: spmdrt.WatchdogTrips(),
		LastOutcome:   snap.LastOutcome,
	}
	if v := expvar.Get("team_pool"); v != nil {
		h.Pool = flatten(v.String())
	}
	// Degraded: the most recent run failed, or the pool has quarantined
	// teams it has not yet rebuilt (a rebuild in flight or stuck).
	if snap.LastOutcome == telemetry.OutcomeError {
		h.Status = "degraded"
	}
	if h.Pool != nil && h.Pool["quarantines"] > h.Pool["rebuilt"] {
		h.Status = "degraded"
	}
	return h
}

// HealthHandler serves /healthz for ag.
func HealthHandler(ag *telemetry.Aggregator) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		h := healthFor(ag)
		w.Header().Set("Content-Type", "application/json")
		if h.Status != "ok" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h)
	})
}

// RunsHandler serves /runs for ag: recent run summaries, newest first,
// as a JSON array. ?n=K limits the count (default: the whole ring).
func RunsHandler(ag *telemetry.Aggregator) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "bad n parameter", http.StatusBadRequest)
				return
			}
			n = v
		}
		runs := ag.Recent(n)
		if runs == nil {
			runs = []telemetry.RunSummary{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(runs)
	})
}

// SpansHandler serves /spans/<trace-id> for ag: the run's span export,
// wrapped in the versioned envelope (tool "spmdrun-spans"). 404 when the
// trace is unknown, evicted from the ring, or ran without spans.
func SpansHandler(ag *telemetry.Aggregator) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/spans/")
		if id == "" || strings.Contains(id, "/") {
			http.Error(w, "want /spans/<trace-id>", http.StatusBadRequest)
			return
		}
		exp := ag.Spans(id)
		if exp == nil {
			http.Error(w, "unknown trace id (evicted, or the run collected no spans)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		envelope.Write(w, envelope.ToolSpans, exp)
	})
}

// DebugMux assembles the full debug-server mux for ag. Exported so tests
// and the future barrierd service mount the identical surface.
func DebugMux(ag *telemetry.Aggregator) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", HandlerFor(ag))
	mux.Handle("/healthz", HealthHandler(ag))
	mux.Handle("/runs", RunsHandler(ag))
	mux.Handle("/spans/", SpansHandler(ag))
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// Server is the running debug listener. Stop it with Shutdown (graceful:
// in-flight scrapes drain) or Close (immediate).
type Server struct {
	srv  *http.Server
	addr string
}

// Addr returns the listener's resolved address (":0" becomes concrete).
func (s *Server) Addr() string { return s.addr }

// Shutdown stops the listener gracefully: no new connections, in-flight
// requests drain until they finish or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// Close drops the listener and all active connections immediately.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts the debug listener (`spmdrun -metrics-addr`) on the
// process-wide aggregator. A bind failure is returned (fatal
// configuration error for callers).
func Serve(addr string) (*Server, error) {
	return ServeAggregator(addr, telemetry.Default())
}

// ServeAggregator starts a debug listener rendering ag.
func ServeAggregator(addr string, ag *telemetry.Aggregator) (*Server, error) {
	srv := &http.Server{Addr: addr, Handler: DebugMux(ag)}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{srv: srv, addr: ln.Addr().String()}
	go srv.Serve(ln)
	return s, nil
}
