package profile

import (
	"bytes"
	"errors"
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

// FuzzDecode feeds arbitrary bytes to the one profile reader every
// consumer shares (spmdrun -profile-in, barrierc -fdo, spmdprof). Decode
// must never panic, and any profile it accepts must be a fixed point of
// the file format: encoding it, decoding that and encoding again gives the
// same bytes. The committed corpus holds a profile written by a real
// meshsmooth run and the wrapped-count case.
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
