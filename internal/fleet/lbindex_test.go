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

// TestLBKeyOrder: the packed key's order is (paused, count) — the invariant
// one integer compare in the tree relies on; the tree breaks equal keys by
// index.
func TestLBKeyOrder(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{lbKey(false, 100), lbKey(true, 0)},           // unpaused beats paused at any load
		{lbKey(false, math.MaxInt32), lbKey(true, 0)}, // even at the largest count
		{lbKey(false, 1), lbKey(false, 2)},            // fewer outstanding first
		{lbKey(true, 1), lbKey(true, 2)},              // paused still ordered by load (fallback)
	}
	for _, c := range cases {
		if c.a >= c.b {
			t.Fatalf("key order violated: %#x >= %#x", c.a, c.b)
		}
	}
}
