package fleet

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"chopin/internal/gc"
	"chopin/internal/obs"
	"chopin/internal/sim"
	"chopin/internal/workload"
)

// Fleet-level differential oracle: the production run (heap-indexed cluster,
// tournament-tree balancers) and the reference run (linear scans over the
// engines' next events and over the replicas) must be byte-identical — same
// report, same telemetry stream event for event — across policies, seeds and
// fleet sizes up to the 1024-replica scale target. Any divergence means an indexed structure
// changed a simulation it was only supposed to accelerate.

// fleetDiffConfig is a small cell sized so the 1024-replica cases stay
// tractable under -race: two arrivals per replica, capped at 512 total
// (simulation cost is per-request, and the point of the big cells is the
// full-size index structures, not the volume), retries enabled to exercise
// the re-injection queue in both modes.
func fleetDiffConfig(n int, pol Policy, seed uint64) Config {
	return Config{
		Replicas:     n,
		Policy:       pol,
		Requests:     min(2*n, 512),
		Arrival:      ArrivalSpec{Kind: ArrivalPoisson},
		RetryAfterNS: 5e6,
		Run: workload.RunConfig{
			HeapMB:     2 * workload.MicroPauseProbe.MinHeapMB,
			Collector:  gc.G1,
			Iterations: 1,
			Events:     60,
			Seed:       seed,
		},
	}
}

// linearPeek is the oracle for the cluster's event heap: a scan of every
// engine's next event, lowest index on exact ties.
type linearPeek []*sim.Engine

func (engines linearPeek) Peek() (idx int, at float64, ok bool) {
	idx = -1
	for i, e := range engines {
		t, alive := e.NextEventAt()
		if alive && (idx < 0 || t < at) {
			idx, at = i, t
		}
	}
	return idx, at, idx >= 0
}

// newTestRun builds a fleet run, with the linear oracles swapped in for the
// cluster heap and the balancer tree when reference is set.
func newTestRun(t *testing.T, cfg Config, rec obs.Recorder, reference bool) *fleetRun {
	t.Helper()
	fr, err := newFleetRun(workload.MicroPauseProbe, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		if fr.bal, err = newReferenceBalancer(fr.cfg.Policy); err != nil {
			t.Fatal(err)
		}
		fr.cluster = linearPeek(fr.engines)
	}
	return fr
}

// runFleetOnce executes one fleet run and returns its marshalled report plus,
// when observed, the full telemetry stream.
func runFleetOnce(t *testing.T, cfg Config, reference, observed bool) ([]byte, []obs.Event) {
	t.Helper()
	var rec obs.Recorder
	var buf obs.Buffer
	if observed {
		rec = &buf
	}
	rep, err := newTestRun(t, cfg, rec, reference).report()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data, buf.Events()
}

func TestFleetDifferential(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastOutstanding, GCAware} {
		for _, seed := range []uint64{1, 42, 1337} {
			for _, n := range []int{1, 4, 64, 1024} {
				pol, seed, n := pol, seed, n
				t.Run(fmt.Sprintf("%s/seed=%d/n=%d", pol, seed, n), func(t *testing.T) {
					t.Parallel()
					// Telemetry is compared wherever it is affordable under
					// -race: everywhere at small N, and on one full-size cell
					// (per-replica GC telemetry makes every observed
					// 1024-replica run cost several seconds; the report
					// comparison still covers the whole grid).
					observed := n < 1024 || (pol == GCAware && seed == 42)
					cfg := fleetDiffConfig(n, pol, seed)
					gotRep, gotEv := runFleetOnce(t, cfg, false, observed)
					wantRep, wantEv := runFleetOnce(t, cfg, true, observed)
					if string(gotRep) != string(wantRep) {
						t.Fatalf("report diverged from reference:\n--- indexed\n%s\n--- reference\n%s",
							gotRep, wantRep)
					}
					if len(gotEv) != len(wantEv) {
						t.Fatalf("telemetry diverged: indexed emitted %d events, reference %d",
							len(gotEv), len(wantEv))
					}
					for i := range gotEv {
						if !reflect.DeepEqual(gotEv[i], wantEv[i]) {
							t.Fatalf("telemetry event %d diverged:\nindexed   %+v\nreference %+v",
								i, gotEv[i], wantEv[i])
						}
					}
				})
			}
		}
	}
}

// TestFleetDifferentialUnobserved repeats the check without a recorder — the
// path the scale benchmark runs — comparing per-replica latency streams
// directly, since there is no telemetry to compare.
func TestFleetDifferentialUnobserved(t *testing.T) {
	for _, pol := range []Policy{LeastOutstanding, GCAware} {
		cfg := fleetDiffConfig(16, pol, 7)
		run := func(reference bool) [][]workload.Event {
			fr := newTestRun(t, cfg, nil, reference)
			if err := fr.run(); err != nil {
				t.Fatal(err)
			}
			out := make([][]workload.Event, len(fr.reps))
			for i, rp := range fr.reps {
				out[i] = rp.Latencies()
			}
			return out
		}
		got, want := run(false), run(true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: per-replica latencies diverged between indexed and reference runs", pol)
		}
	}
}
