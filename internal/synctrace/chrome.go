package synctrace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export: the JSON object format of the Trace Event
// spec (a "traceEvents" array plus displayTimeUnit), loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing. One track (tid) per worker;
// waits are complete events ("X") with microsecond timestamps, posts are
// instant events ("i"); metadata events name the process and threads.

// chromeEvent is one element of the traceEvents array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ExtraSpan is an externally-timed interval merged into the Chrome
// export on its own track — the run-lifecycle spans of internal/telemetry
// ride here so one Perfetto load shows compile/lease/execute phases above
// the per-worker sync events. StartNS is relative to the recorder's
// Epoch and is negative for a span that began before tracing.
type ExtraSpan struct {
	Name    string
	Cat     string
	StartNS int64
	DurNS   int64
	Args    map[string]any
}

// WriteChromeTrace serializes the merged trace as Chrome trace-event
// JSON, with spans (nil for a plain export) on a lifecycle track one
// past the last worker, so it sorts below the workers in Perfetto. Both
// share one time base: ts 0 is the recorder's epoch or the earliest
// span start, whichever came first. Call only after the team has
// quiesced.
func (r *Recorder) WriteChromeTrace(w io.Writer, spans []ExtraSpan) error {
	if r == nil {
		return fmt.Errorf("synctrace: no recorder (tracing was not enabled)")
	}
	var origin int64
	for _, es := range spans {
		if es.StartNS < origin {
			origin = es.StartNS
		}
	}
	us := func(ns int64) float64 { return float64(ns-origin) / 1e3 }
	tr := chromeTrace{DisplayTimeUnit: "ns"}
	tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "spmd team"},
	})
	for wk := 0; wk < r.Workers(); wk++ {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: wk,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", wk)},
		})
	}
	if len(spans) > 0 {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: r.Workers(),
			Args: map[string]any{"name": "lifecycle"},
		})
	}
	if len(r.meta) > 0 {
		// Run-level metadata (team generation, pooled execution) rides one
		// metadata event; json marshals map keys sorted, so the export
		// stays byte-stable run to run.
		args := make(map[string]any, len(r.meta))
		for k, v := range r.meta {
			args[k] = v
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "run_metadata", Ph: "M", Pid: 0, Tid: 0, Args: args,
		})
	}
	for _, ev := range r.Events() {
		ce := chromeEvent{
			Name: eventName(r, ev.Event),
			Cat:  ev.Kind.String(),
			Ts:   us(ev.Start),
			Pid:  0,
			Tid:  ev.Worker,
			Args: map[string]any{
				"site": r.SiteName(ev.Site),
				"arg":  ev.Arg,
			},
		}
		if ev.Kind.Blocking() {
			ce.Ph = "X"
			dur := float64(ev.End-ev.Start) / 1e3
			ce.Dur = &dur
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		tr.TraceEvents = append(tr.TraceEvents, ce)
	}
	for _, es := range spans {
		dur := float64(es.DurNS) / 1e3
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: es.Name,
			Cat:  es.Cat,
			Ph:   "X",
			Ts:   us(es.StartNS),
			Dur:  &dur,
			Pid:  0,
			Tid:  r.Workers(),
			Args: es.Args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// eventName builds the track label: kind plus site, e.g.
// "barrier @ site 2 [barrier]" or "neighbor-wait @ wavefront k".
func eventName(r *Recorder, e Event) string {
	if e.Site == NoSite {
		return e.Kind.String()
	}
	return e.Kind.String() + " @ " + r.SiteName(e.Site)
}
