package sim

import (
	"fmt"
	"testing"
)

// linearMin is MinIndex's oracle: the lowest slot holding the smallest key.
func linearMin(keys []uint64) int {
	best := -1
	for i, k := range keys {
		if best < 0 || k < keys[best] {
			best = i
		}
	}
	return best
}

// TestMinIndexMatchesLinearScan drives the tree and a plain slice through the
// same random Set streams and demands the same minimum after every Set. Keys
// are drawn from a few values, so most minima are ties only the slot order
// decides; the sizes cover n = 1, small non-powers of two (whose subtrees do
// not cover contiguous slot runs) and a large one.
func TestMinIndexMatchesLinearScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 1000} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				rng := NewRNG(seed*0x9e3779b97f4a7c15 + uint64(n))
				const init = 2
				m := NewMinIndex[uint64](n, init)
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = init
				}
				if got := m.Min(); got != 0 {
					t.Fatalf("fresh index: Min = %d, want 0", got)
				}
				for op := 0; op < 8*n+200; op++ {
					i := int(rng.Uint64() % uint64(n))
					k := rng.Uint64() % 4
					m.Set(i, k)
					keys[i] = k
					if got, want := m.Min(), linearMin(keys); got != want {
						t.Fatalf("op %d (slot %d := %d): Min = %d, want %d", op, i, k, got, want)
					}
					if got := m.Key(i); got != k {
						t.Fatalf("op %d: Key(%d) = %d, want %d", op, i, got, k)
					}
				}
			})
		}
	}
}

// TestMinIndexEmpty: an index over no slots has no minimum.
func TestMinIndexEmpty(t *testing.T) {
	if got := NewMinIndex[float64](0, 0).Min(); got != -1 {
		t.Fatalf("empty index: Min = %d, want -1", got)
	}
}
