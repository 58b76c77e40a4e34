package compile

import (
	"math"
	"testing"
)

// TestCRTMatchesSearch compares crt with a search over one period for every
// pair of moduli up to 12 and every pair of residues, and checks that an lcm
// past int64 is reported rather than wrapped.
func TestCRTMatchesSearch(t *testing.T) {
	for m := int64(1); m <= 12; m++ {
		for n := int64(1); n <= 12; n++ {
			for a := int64(0); a < m; a++ {
				for b := int64(0); b < n; b++ {
					r, l, some, fits := crt(a, m, b, n)
					want, lcm := int64(-1), m*n
					for i := int64(0); i < m*n; i++ {
						if i%m == a && i%n == b && want < 0 {
							want = i
						}
						if i > 0 && i%m == 0 && i%n == 0 && lcm == m*n {
							lcm = i
						}
					}
					if !fits || l != lcm || some != (want >= 0) || some && r != want {
						t.Fatalf("crt(%d, %d, %d, %d) = %d, %d, %v, %v; want %d, %d, %v", a, m, b, n, r, l, some, fits, want, lcm, want >= 0)
					}
				}
			}
		}
	}
	if _, _, _, fits := crt(0, 1<<62, 1, 3); fits {
		t.Fatal("crt(0, 2^62, 1, 3): the lcm 3*2^62 fits, it says")
	}
	if r, l, some, fits := crt(5, math.MaxInt64, 0, 1); !some || !fits || r != 5 || l != math.MaxInt64 {
		t.Fatalf("crt(5, MaxInt64, 0, 1) = %d, %d, %v, %v", r, l, some, fits)
	}
}
