package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// RenderTree writes the span tree as indented text, children in start
// order. withAttrs additionally prints each span's attribute keys and
// values sorted by key. Timing fields are never rendered, so the output
// of a deterministic pipeline is golden-pinnable.
func RenderTree(spans []Span, withAttrs bool) string {
	children := make(map[SpanID][]Span)
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	for _, cs := range children {
		sort.SliceStable(cs, func(i, j int) bool {
			if cs[i].StartNS != cs[j].StartNS {
				return cs[i].StartNS < cs[j].StartNS
			}
			return cs[i].ID < cs[j].ID
		})
	}
	var b strings.Builder
	var walk func(id SpanID, depth int)
	walk = func(id SpanID, depth int) {
		for _, sp := range children[id] {
			b.WriteString(strings.Repeat("  ", depth))
			b.WriteString(sp.Name)
			if withAttrs && len(sp.Attrs) > 0 {
				keys := make([]string, 0, len(sp.Attrs))
				for k := range sp.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				b.WriteString(" {")
				for i, k := range keys {
					if i > 0 {
						b.WriteString(", ")
					}
					fmt.Fprintf(&b, "%s=%s", k, sp.Attrs[k])
				}
				b.WriteString("}")
			}
			b.WriteByte('\n')
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 0)
	return b.String()
}
