package profile

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// wrappedCount is a hostile profile whose two bucket counts of 2^63-1 sum,
// in unchecked int64 arithmetic, to the -2 its header claims. It is also a
// seed of FuzzDecode's committed corpus.
const wrappedCount = `{"schema_version":1,"tool":"spmd-profile","payload":{"profile_schema":1,` +
	`"program":"p","program_hash":"h","schedule_hash":"s","mode":"spmd","workers":2,` +
	`"backend":"closure","runs":1,"span_ns":1,"sites":[{"site":1,"kind":"barrier","ops":1,` +
	`"wait":{"count":-2,"sum_ns":0,"buckets":[[1,9223372036854775807],[2,9223372036854775807]]}}]}}`

// TestDecodeRejectsWrappedCount: a sketch whose bucket counts overflow, or
// whose header count is negative, is not a profile.
func TestDecodeRejectsWrappedCount(t *testing.T) {
	positive := bytes.Replace([]byte(wrappedCount), []byte(`"count":-2`), []byte(`"count":9223372036854775807`), 1)
	for name, b := range map[string][]byte{"negative header": []byte(wrappedCount), "overflow": positive} {
		if _, err := Decode(b); !errors.Is(err, ErrEnvelope) {
			t.Errorf("%s: Decode error = %v, want ErrEnvelope", name, err)
		}
	}
}

// fullSite is a valid one-site profile that sets every count and duration
// a site carries, each to a distinct non-negative value.
const fullSite = `{"schema_version":1,"tool":"spmd-profile","payload":{"profile_schema":1,` +
	`"program":"p","program_hash":"h","schedule_hash":"s","mode":"spmd","workers":2,` +
	`"backend":"closure","runs":1,"span_ns":1,"sites":[{"site":1,"kind":"barrier","ops":3,` +
	`"wait":{"count":1,"sum_ns":5,"min_ns":5,"max_ns":5,"buckets":[[5,1]]},` +
	`"episodes":1,"slack_sum_ns":2,"max_slack_ns":2,"last_by_worker":[0,1],` +
	`"scans":4,"empty_crossings":6,"wait_crossings":7,"conservative":8}]}}`

// TestDecodeRejectsNegativeFields: every count and duration of a profile
// is non-negative, site ids are distinct and 1-based, and a profile covers
// at least one run; a file that says otherwise is not a profile.
func TestDecodeRejectsNegativeFields(t *testing.T) {
	if _, err := Decode([]byte(fullSite)); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	for _, c := range []struct{ from, to string }{
		{`"ops":3`, `"ops":-3`},
		{`"sum_ns":5`, `"sum_ns":-5`},
		{`"min_ns":5`, `"min_ns":-5`},
		{`"max_ns":5`, `"max_ns":-5`},
		{`"episodes":1`, `"episodes":-1`},
		{`"slack_sum_ns":2`, `"slack_sum_ns":-2`},
		{`"max_slack_ns":2`, `"max_slack_ns":-2`},
		{`"last_by_worker":[0,1]`, `"last_by_worker":[0,-1]`},
		{`"scans":4`, `"scans":-4`},
		{`"empty_crossings":6`, `"empty_crossings":-6`},
		{`"wait_crossings":7`, `"wait_crossings":-7`},
		{`"conservative":8`, `"conservative":-8`},
		{`"span_ns":1`, `"span_ns":-1`},
		{`"site":1`, `"site":0`},
		{`"runs":1`, `"runs":0`},
		{`"sites":[{`, `"sites":[{"site":1},{`},
	} {
		b := strings.Replace(fullSite, c.from, c.to, 1)
		if b == fullSite {
			t.Fatalf("%s: not in the fixture", c.from)
		}
		if _, err := Decode([]byte(b)); !errors.Is(err, ErrEnvelope) {
			t.Errorf("%s: Decode error = %v, want ErrEnvelope", c.to, err)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the one profile reader every
// consumer shares (spmdrun -profile-in, barrierc -fdo, spmdprof). Decode
// must never panic, and any profile it accepts must be a fixed point of
// the file format: encoding it, decoding that and encoding again gives the
// same bytes. The committed corpus holds a profile written by a real
// meshsmooth run, the wrapped-count case and a negative-ops case.
//
//	go test -run '^$' -fuzz=FuzzDecode -fuzztime=30s ./internal/profile
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		first, err := Encode(p)
		if err != nil {
			t.Fatalf("accepted profile does not encode: %v", err)
		}
		q, err := Decode(first)
		if err != nil {
			t.Fatalf("encoded profile does not decode: %v\n%s", err, first)
		}
		second, err := Encode(q)
		if err != nil {
			t.Fatalf("re-decoded profile does not encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encode/decode/encode is not stable:\n%s\nvs\n%s", first, second)
		}
	})
}

// FuzzReadLedger feeds arbitrary bytes to the ledger reader (spmdprof
// ledger reads whatever file it is given). ReadLedger must never panic,
// and every record of a ledger it accepts must carry a profile that passes
// the checks Decode applies to a profile file. The committed corpus holds
// a two-record ledger written by real jacobi1d runs, the same ledger torn
// mid-line, and a record with profile_schema 99 and one with negative ops.
//
//	go test -run '^$' -fuzz=FuzzReadLedger -fuzztime=30s ./internal/profile
func FuzzReadLedger(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadLedger(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, rec := range recs {
			b, err := Encode(rec.Profile)
			if err != nil {
				t.Fatalf("record %d: accepted profile does not encode: %v", i, err)
			}
			if _, err := Decode(b); err != nil {
				t.Fatalf("record %d: accepted profile fails Decode: %v\n%s", i, err, b)
			}
		}
	})
}
