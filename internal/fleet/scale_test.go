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
// 1024 under 4× the 64-replica figure). allocs/op is not flat in N: the
// loop's scratch is pooled and every index structure is pre-sized at
// construction, yet BENCH_sim.json records 265, 515 and 412 allocs/op
// (2–5 MB/op) at 16, 64 and 256 replicas against 0 at 1024, and the gate
// holds only the 1024 rung at zero. A -memprofilerate=1 profile of the timed
// loop (pprof -focus on fleetRun.run) at 16 and 64 replicas traces them to
// append growth of per-replica state. The GC log's trace.(*Log).AddPause and
// AddEvent, reached from gc.(*Collector).endPause, make ~72% of the loop's
// allocations (92% of its bytes at 16 replicas). The open-loop arrival
// queue grown by workload.(*runner).injectArrival makes ~25%; at 256
// replicas only the GC log still grows. All of it scales with the requests
// each replica serves (2048/N): at 1024 replicas the 2 requests each fit
// the initial capacities, which is why that rung reads 0.
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
