package traceview

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkScaled demands scaled's bytes equal the strconv formatting it
// replaces, float64(n)/10^k in AppendFloat's shortest 'g' form.
func checkScaled(t *testing.T, n int64, k int) {
	t.Helper()
	want := strconv.AppendFloat([]byte("x"), float64(n)/pow10[k], 'g', -1, 64)
	if got := scaled([]byte("x"), n, k); !bytes.Equal(got, want) {
		t.Fatalf("scaled(%d, %d) = %q, strconv writes %q", n, k, got[1:], want[1:])
	}
}

// TestScaledMatchesStrconv checks the Chrome number fast path against
// strconv at the boundaries where the form or the path changes — 1e6 µs
// (from %f to %e), 1e-4 (from %f to the strconv fallback), 2^40 (the
// exactness bound) — and on seeded random values, at k = 3 (µs from ns) and
// k = 6 (ms from ns).
func TestScaledMatchesStrconv(t *testing.T) {
	edges := []int64{
		0, 1, 9, 10, 99, 100, 101, 999, 1000, 1001, 12345, 1e5, 1e6, 1e7,
		1e8, 1e9, 1e10, 1e11, 1e12, 123456789012, 1 << 39, 1 << 40,
		math.MaxInt64, 1 << 53, 1<<53 + 1,
	}
	for _, k := range []int{3, 6} {
		for _, e := range edges {
			for d := int64(-2); d <= 2; d++ {
				checkScaled(t, e+d, k)
				checkScaled(t, -(e + d), k)
			}
		}
		checkScaled(t, math.MinInt64, k)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		n := rng.Int63() >> rng.Intn(63)
		if rng.Intn(2) == 0 {
			n = -n
		}
		checkScaled(t, n, 3+3*rng.Intn(2))
	}
}

// FuzzChromeNumber: for any int64 n, scaled and strconv write the same
// bytes for n/10^3 and n/10^6. The committed corpus
// (testdata/fuzz/FuzzChromeNumber) holds the boundaries of
// TestScaledMatchesStrconv.
func FuzzChromeNumber(f *testing.F) {
	f.Fuzz(func(t *testing.T, n int64, ms bool) {
		k := 3
		if ms {
			k = 6
		}
		checkScaled(t, n, k)
	})
}
