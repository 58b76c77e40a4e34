package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/envelope"
)

// certifyVerdict is the part of the -certify payload a script reads.
type certifyVerdict struct {
	Certified   bool            `json:"certified"`
	Certificate json.RawMessage `json:"certificate"`
	Violations  []struct {
		Region  string          `json:"region"`
		Witness json.RawMessage `json:"witness"`
	} `json:"violations"`
}

// certifyRun runs `barrierc -kernel jacobi1d -certify -sabotage site` and
// returns its exit status and decoded envelope payload (nil when stdout
// is empty).
func certifyRun(t *testing.T, site string) (int, *certifyVerdict) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-kernel", "jacobi1d", "-certify", "-sabotage", site}, &stdout, &stderr)
	if stdout.Len() == 0 {
		return code, nil
	}
	env, err := envelope.Decode(stdout.Bytes())
	if err != nil {
		t.Fatalf("-sabotage %s: stdout is not an envelope: %v", site, err)
	}
	if env.Tool != envelope.ToolCertify {
		t.Fatalf("-sabotage %s: tool %q, want %q", site, env.Tool, envelope.ToolCertify)
	}
	var pay certifyVerdict
	if err := env.Into(&pay); err != nil {
		t.Fatal(err)
	}
	return code, &pay
}

// TestCertifyRejectionEnvelope: -certify always prints its verdict. A
// sabotaged real edge (jacobi1d site 2, the neighbor sync of the sweep)
// exits 1 with certified:false and the violations with their witnesses;
// dropping site 1, a no-op boundary, still certifies (exit 0); a site out
// of range is an internal error (exit 2) with nothing on stdout.
func TestCertifyRejectionEnvelope(t *testing.T) {
	code, pay := certifyRun(t, "2")
	if code != 1 || pay == nil {
		t.Fatalf("-sabotage 2: exit %d, payload %v; want exit 1 and a rejection envelope", code, pay)
	}
	if pay.Certified || pay.Certificate != nil || len(pay.Violations) == 0 {
		t.Fatalf("-sabotage 2: payload %+v, want certified:false with violations", pay)
	}
	for _, v := range pay.Violations {
		if len(v.Witness) == 0 {
			t.Errorf("violation in %s carries no witness", v.Region)
		}
	}

	code, pay = certifyRun(t, "1")
	if code != 0 || pay == nil || !pay.Certified || pay.Certificate == nil {
		t.Fatalf("-sabotage 1 (no-op site): exit %d, payload %+v; want a certificate", code, pay)
	}

	if code, pay = certifyRun(t, "99"); code != 2 || pay != nil {
		t.Fatalf("-sabotage 99: exit %d, payload %+v; want exit 2 and empty stdout", code, pay)
	}
}
