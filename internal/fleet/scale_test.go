package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"chopin/internal/gc"
	"chopin/internal/workload"
)

// BenchmarkFleetScale measures the driving loop's per-event cost up the
// replica ladder. Construction — replicas, cluster index, balancer tree, all
// O(N) — runs outside the timer, so ns/op, ns/event and allocs/op cover only
// the hot loop. With the O(log N) cluster heap and balancer tree, ns/event
// grows only logarithmically from 16 to 1024 replicas (the bench gate holds
// 1024 under 4× the 64-replica figure). The loop allocates nothing at any
// rung, and BENCH_sim.json holds all four at 0 allocs/op. The per-replica
// state that grows with the requests a replica serves (2048/N) — the GC log
// appended from gc.(*Collector).endPause, the open-loop arrival queue grown
// by injectArrival, and the latency record — lives in the replica's
// workload.Scratch. The run's fleet scratch keeps those by replica index
// and fleetRun.release hands them back, so from the second run on every
// replica appends into storage its predecessor already grew. The fleet
// scratch sits on a plain free list rather than a sync.Pool: a pool that
// handed the timed run a fresh scratch would regrow it in the loop.
//
// Total request volume is fixed across the ladder, so the work per op is
// comparable: more replicas means the same stream spread thinner, not a
// bigger stream.
func BenchmarkFleetScale(b *testing.B) {
	const totalRequests = 2048
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			cfg := Config{
				Replicas: n,
				Policy:   GCAware,
				Requests: totalRequests,
				Arrival:  ArrivalSpec{Kind: ArrivalPoisson},
				Run: workload.RunConfig{
					HeapMB:     2 * workload.MicroPauseProbe.MinHeapMB,
					Collector:  gc.G1,
					Iterations: 1,
					Events:     60,
					Seed:       42,
				},
			}
			b.ReportAllocs()
			var events int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fr, err := newFleetRun(workload.MicroPauseProbe, cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				// Finish the GC cycle the O(N) construction garbage
				// triggers: the loop itself allocates nothing, so no
				// collection can start inside the timed region — but one
				// already in flight would carry a few runtime-internal
				// mallocs across the start line and smear the 0 allocs/op
				// figure.
				runtime.GC()
				b.StartTimer()
				if err := fr.run(); err != nil {
					b.Fatal(err)
				}
				// Release outside the timer: recycling pooled scratch is
				// once-per-run housekeeping (a sync.Pool Put can rebuild
				// its chain after a GC), not per-event cost — and the
				// metric map insert below must not count against the
				// loop's 0 B/op at 1024 replicas either.
				b.StopTimer()
				fr.release()
				events += fr.steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
