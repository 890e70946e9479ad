package workload

import (
	"fmt"
	"math"
	"testing"

	"chopin/internal/gc"
)

// CPU conservation on pause-heavy runs: at small heap factors every
// collector stops the world often, so the mutator group is frozen and
// thawed, and the STW gang run, thousands of times per run. Whatever the
// engine does with those pauses, each iteration's task clock must stay
// within what the machine can deliver, and the iterations' task clocks must
// add up to the CPU the mutator and GC threads report consuming. The
// mutators' share is derived from the engine's O(1) task-clock aggregate;
// the kernel-mode CPU is summed from per-thread accounting, and with one
// kernel fraction for every Spring worker the two must agree.
func TestCPUConservedUnderPauses(t *testing.T) {
	for _, factor := range []float64{1.5, 2} {
		for _, kind := range gc.AllKinds {
			t.Run(fmt.Sprintf("%vx/%v", factor, kind), func(t *testing.T) {
				res, err := Run(Spring, RunConfig{
					HeapMB: factor * Spring.MinHeapMB, Collector: kind,
					Iterations: 2, Events: 1000, Seed: 42,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Log.Pauses) == 0 {
					t.Fatal("no stop-the-world pause: the run does not exercise the pause path")
				}
				hw := float64(res.Config.Machine.HWThreads)
				var sum, kernel float64
				for i, it := range res.Iterations {
					sum += it.CPUNS
					kernel += it.KernelNS
					if it.CPUNS > it.WallNS*hw {
						t.Errorf("iteration %d: task clock %v ns exceeds wall %v ns × %v HW threads",
							i, it.CPUNS, it.WallNS, hw)
					}
				}
				want := res.MutatorCPUNS + res.GCCPUNS
				if math.Abs(sum-want) > 1e-9*want {
					t.Errorf("Σ iteration CPU = %v ns, mutator + GC CPU = %v ns (rel. diff %.3g)",
						sum, want, math.Abs(sum-want)/want)
				}
				if wantK := Spring.KernelFrac * res.MutatorCPUNS; math.Abs(kernel-wantK) > 1e-9*wantK {
					t.Errorf("Σ per-thread kernel CPU = %v ns, kernel fraction × mutator CPU = %v ns",
						kernel, wantK)
				}
			})
		}
	}
}
