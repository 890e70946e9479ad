package fleet

import (
	"fmt"
	"math"
	"testing"

	"chopin/internal/sim"
)

// The indexed balancers must be decision-identical to the linear oracles
// under any interleaving of injects, completes and pause transitions. The
// property test drives both through the same randomized update stream,
// mirroring state into fakeBackends for the linear side, and compares every
// pick.

func TestIndexedBalancerMatchesLinear(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastOutstanding, GCAware} {
		for _, n := range []int{1, 2, 3, 7, 16, 100, 1024} {
			for seed := uint64(1); seed <= 5; seed++ {
				pol, n, seed := pol, n, seed
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", pol, n, seed), func(t *testing.T) {
					idx, err := newBalancer(pol, n)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := newReferenceBalancer(pol)
					if err != nil {
						t.Fatal(err)
					}
					state := make([]fakeBackend, n)
					backs := make([]backend, n)
					for i := range state {
						backs[i] = &state[i]
					}
					rng := sim.NewRNG(seed * 0x9e3779b97f4a7c15)
					for op := 0; op < 4096; op++ {
						i := int(rng.Uint64() % uint64(n))
						switch rng.Uint64() % 8 {
						case 0, 1: // inject
							state[i].out++
							idx.inject(i)
							ref.inject(i)
						case 2: // complete, if anything outstanding there
							if state[i].out > 0 {
								state[i].out--
								idx.complete(i)
								ref.complete(i)
							}
						case 3: // pause transition
							state[i].paused = !state[i].paused
							idx.setPaused(i, state[i].paused)
							ref.setPaused(i, state[i].paused)
						default: // pick and compare
							got, want := idx.pick(backs), ref.pick(backs)
							if got != want {
								t.Fatalf("op %d: indexed pick %+v, linear pick %+v (state %+v)",
									op, got, want, state[:min(n, 16)])
							}
						}
					}
				})
			}
		}
	}
}

// TestMinTreeNonPowerOfTwo: unused leaves must never win, whatever the
// replica count's relation to the tree base.
func TestMinTreeNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 6, 7, 9, 1000} {
		tr := newMinTree(n)
		if got := int(tr.root() & lbIdxMask); got != 0 {
			t.Fatalf("n=%d: fresh tree root = replica %d, want 0", n, got)
		}
		// Load every real replica heavily; the root must still be a real index.
		for i := 0; i < n; i++ {
			tr.set(i, lbKey(false, math.MaxInt32>>1, int32(i)))
		}
		if got := int(tr.root() & lbIdxMask); got != 0 {
			t.Fatalf("n=%d: loaded tree root = replica %d, want 0 (padding leaf must not win)", n, got)
		}
	}
}

// TestLBKeyOrder: the packed key's total order is (paused, count, index) —
// the invariant one integer compare in the tree relies on.
func TestLBKeyOrder(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{lbKey(false, 100, 5), lbKey(true, 0, 0)}, // unpaused beats paused at any load
		{lbKey(false, 1, 9), lbKey(false, 2, 0)},  // fewer outstanding beats lower index
		{lbKey(false, 3, 2), lbKey(false, 3, 4)},  // equal load: lowest index
		{lbKey(true, 1, 0), lbKey(true, 2, 0)},    // paused still ordered by load (fallback)
	}
	for _, c := range cases {
		if c.a >= c.b {
			t.Fatalf("key order violated: %#x >= %#x", c.a, c.b)
		}
	}
}
