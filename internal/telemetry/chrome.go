package telemetry

import "repro/internal/synctrace"

// ChromeSpans converts the trace's spans into synctrace extra events
// aligned to rec's epoch, for rec.WriteChromeTrace: the lifecycle track
// carries compile/lease/execute phases above the per-worker sync tracks.
// Returns nil when either side is nil.
func (t *Trace) ChromeSpans(rec *synctrace.Recorder) []synctrace.ExtraSpan {
	if t == nil || rec == nil {
		return nil
	}
	// A span's absolute start is trace epoch + StartNS; re-express it
	// relative to the recorder's epoch (set when the executor built the
	// recorder, i.e. mid-trace, so most spans land before it).
	shift := t.Epoch().Sub(rec.Epoch()).Nanoseconds()
	spans := t.Spans()
	out := make([]synctrace.ExtraSpan, 0, len(spans))
	for _, sp := range spans {
		dur := sp.DurNS
		if dur < 0 {
			dur = 0
		}
		args := map[string]any{"span_id": int(sp.ID), "parent_id": int(sp.Parent)}
		for k, v := range sp.Attrs {
			args[k] = v
		}
		out = append(out, synctrace.ExtraSpan{
			Name:    sp.Name,
			Cat:     "lifecycle",
			StartNS: sp.StartNS + shift,
			DurNS:   dur,
			Args:    args,
		})
	}
	return out
}
