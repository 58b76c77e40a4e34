package suite

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/envelope"
)

// TestMeasureProfileBench smokes the Table H pipeline on two kernels:
// every row must carry merged quantiles consistent with its total wait
// and a top site drawn from the profiled site set.
func TestMeasureProfileBench(t *testing.T) {
	rep, err := MeasureProfileBench([]string{"jacobi1d", "pipeline"}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 || rep.Runs != 2 || rep.Workers != 4 {
		t.Fatalf("bad report shape: %+v", rep)
	}
	for _, r := range rep.Rows {
		if r.Sites == 0 {
			t.Errorf("%s: no sync sites profiled", r.Kernel)
		}
		if r.WaitNS < 0 || r.P99NS < r.P50NS {
			t.Errorf("%s: inconsistent quantiles p50=%d p99=%d", r.Kernel, r.P50NS, r.P99NS)
		}
		if r.Sites > 0 && r.TopSite == 0 {
			t.Errorf("%s: sites profiled but no top site named", r.Kernel)
		}
	}
	var buf bytes.Buffer
	if err := envelope.Write(&buf, envelope.ToolProfBench, rep); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Tool    string             `json:"tool"`
		Payload ProfileBenchReport `json:"payload"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Tool != "benchtab-profile" || len(env.Payload.Rows) != 2 {
		t.Fatalf("bad BENCH_profile envelope: tool=%q rows=%d", env.Tool, len(env.Payload.Rows))
	}
}
