package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"chopin/internal/exper"
	"chopin/internal/obs"
	"chopin/internal/obs/span"
	"chopin/internal/obs/traceview"
	"chopin/internal/sim"
	"chopin/internal/workload"
)

// collectTrace runs one traced fleet and returns the captured event stream.
func collectTrace(t *testing.T, cfg Config) []obs.Event {
	t.Helper()
	var buf obs.Buffer
	if _, err := Run(workload.MicroPauseProbe, cfg, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Events()
}

// TestBlameSumsExactly is the tentpole invariant: for every completed
// logical request, the four blame components sum *exactly* — int64 equality,
// no epsilon — to the measured end-to-end latency, across seeds, balancer
// policies and retry configurations.
func TestBlameSumsExactly(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastOutstanding, GCAware} {
		for _, seed := range []uint64{42, 7, 1234} {
			cfg := testConfig(3, pol)
			cfg.Run.Seed = seed
			cfg.Arrival = ArrivalSpec{Kind: ArrivalPoisson}
			cfg.RetryAfterNS = 4e6 // tight enough that some requests retry
			events := collectTrace(t, cfg)

			var requests int
			for _, e := range events {
				if e.Kind != obs.KindFleetRequest {
					continue
				}
				requests++
				e2e := e.TNS - int64(e.Aux)
				if int64(e.DurNS) != e2e {
					t.Fatalf("%s seed %d: request %v: DurNS %v != TNS-firstArr %d",
						pol, seed, e.Value, e.DurNS, e2e)
				}
				sum := e.QueueNS + e.GCNS + e.ServiceNS + e.RetryNS
				if sum != e2e {
					t.Fatalf("%s seed %d: request %v: blame %d+%d+%d+%d = %d != e2e %d",
						pol, seed, e.Value, e.QueueNS, e.GCNS, e.ServiceNS, e.RetryNS, sum, e2e)
				}
				if e.QueueNS < 0 || e.GCNS < 0 || e.ServiceNS < 0 || e.RetryNS < 0 {
					t.Fatalf("%s seed %d: request %v: negative blame component: %+v",
						pol, seed, e.Value, e)
				}
				if e.Replica < 1 || int(e.Replica) > cfg.Replicas {
					t.Fatalf("%s seed %d: request %v on replica %d of %d",
						pol, seed, e.Value, e.Replica, cfg.Replicas)
				}
				if e.Cycle < 1 {
					t.Fatalf("%s seed %d: request %v finished with %d attempts",
						pol, seed, e.Value, e.Cycle)
				}
				if e.RetryNS > 0 && e.Cycle < 2 {
					t.Fatalf("%s seed %d: request %v has retry overhead %d on a single attempt",
						pol, seed, e.Value, e.RetryNS)
				}
			}
			if requests != cfg.Requests {
				t.Fatalf("%s seed %d: %d fleet-request events, want exactly %d (one per logical request)",
					pol, seed, requests, cfg.Requests)
			}
			if requests < 100 {
				t.Fatalf("property test too small: %d requests", requests)
			}
		}
	}
}

// TestBlameAccountsGCTime: over the whole probe run the decomposition must
// actually attribute pause time — a workload named pause-probe collides with
// STW pauses — and every route decision must reference a real replica with a
// legal reason.
func TestBlameAccountsGCTime(t *testing.T) {
	cfg := testConfig(2, GCAware)
	events := collectTrace(t, cfg)

	var gcTotal, routes, avoided int64
	reasons := map[string]bool{}
	for _, e := range events {
		switch e.Kind {
		case obs.KindFleetRequest:
			gcTotal += e.GCNS
		case obs.KindFleetRoute:
			routes++
			reasons[e.Phase.String()] = true
			avoided += int64(e.Aux)
			if e.Replica < 1 || e.Replica > 2 {
				t.Fatalf("route to replica %d", e.Replica)
			}
			switch e.Phase.String() {
			case ReasonGCAware, ReasonGCAwareAvoid, ReasonGCAwareFallback:
			default:
				t.Fatalf("gc-aware fleet produced route reason %q", e.Phase)
			}
		}
	}
	if routes != int64(cfg.Requests) {
		t.Fatalf("%d route events, want %d", routes, cfg.Requests)
	}
	if gcTotal == 0 {
		t.Fatal("no GC time attributed to any request of a pause-heavy workload")
	}
	if !reasons[ReasonGCAware] {
		t.Fatalf("route reasons seen: %v", reasons)
	}
}

// TestWindowStream: the window grid is per-replica, time-ordered, gapless
// and internally consistent (violations never exceed completions, burn rate
// zero iff no violations).
func TestWindowStream(t *testing.T) {
	cfg := testConfig(2, RoundRobin)
	events := collectTrace(t, cfg)

	next := map[int32]int64{} // replica → expected next window start
	var windows int
	for _, e := range events {
		if e.Kind != obs.KindFleetWindow {
			continue
		}
		windows++
		if e.Replica < 1 || e.Replica > 2 {
			t.Fatalf("window for replica %d", e.Replica)
		}
		start := e.TNS - int64(e.DurNS)
		if want, ok := next[e.Replica]; ok && start != want {
			t.Fatalf("replica %d window starts at %d, want %d (gap or overlap)",
				e.Replica, start, want)
		}
		next[e.Replica] = e.TNS
		if e.Aux > e.Value {
			t.Fatalf("window has %v violations of %v completions", e.Aux, e.Value)
		}
		if (e.BurnRate > 0) != (e.Aux > 0) {
			t.Fatalf("burn rate %v with %v violations", e.BurnRate, e.Aux)
		}
		if e.InFlight < 0 {
			t.Fatalf("negative in-flight %d", e.InFlight)
		}
	}
	if windows == 0 {
		t.Fatal("no fleet-window events recorded")
	}
	// Both replicas cover the identical grid.
	if next[1] != next[2] {
		t.Fatalf("replica windows end at %d vs %d", next[1], next[2])
	}
}

// TestTraceDoesNotPerturb: the observed run must produce byte-identical
// reports to the unobserved one — recording is read-only on the simulation.
func TestTraceDoesNotPerturb(t *testing.T) {
	cfg := testConfig(2, GCAware)
	cfg.RetryAfterNS = 4e6
	bare, err := Run(workload.MicroPauseProbe, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf obs.Buffer
	traced, err := Run(workload.MicroPauseProbe, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(bare)
	b, _ := json.Marshal(traced)
	if string(a) != string(b) {
		t.Fatalf("tracing perturbed the simulation:\n--- bare\n%s\n--- traced\n%s", a, b)
	}
	if len(buf.Events()) == 0 {
		t.Fatal("traced run recorded nothing")
	}
}

// TestTraceWorkerCountInvariant: per-run trace content must not depend on
// how many pool workers executed the sweep. Jobs flush their telemetry
// buffers in completion order, so the global interleaving legitimately
// differs — but each run's (job key's) event subsequence must be
// byte-identical between a serial and a parallel engine.
func TestTraceWorkerCountInvariant(t *testing.T) {
	collect := func(workers int) map[string]string {
		var buf obs.Buffer
		eng := exper.New(exper.Options{Workers: workers, Recorder: &buf})
		sw := testSweep()
		sw.Base.RetryAfterNS = 4e6
		if _, err := RunSweep(eng, workload.MicroPauseProbe, sw); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		byRun := map[string][]obs.Event{}
		for _, e := range buf.Events() {
			switch e.Kind {
			case obs.KindJobStart, obs.KindJobFinish, obs.KindCacheHit,
				obs.KindCacheMiss, obs.KindMinHeap, obs.KindRunEnd,
				obs.KindSchedWorker:
				// Engine bookkeeping carries host wall-clock time and
				// scheduler identity; only virtual-clock telemetry is
				// worker-count invariant.
				continue
			}
			byRun[e.Run.String()] = append(byRun[e.Run.String()], e)
		}
		out := make(map[string]string, len(byRun))
		for run, evs := range byRun {
			data, err := json.Marshal(evs)
			if err != nil {
				t.Fatal(err)
			}
			out[run] = string(data)
		}
		return out
	}
	serial := collect(1)
	parallel := collect(4)
	if len(serial) == 0 {
		t.Fatal("sweep recorded no runs")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("runs recorded: %d serial vs %d parallel", len(serial), len(parallel))
	}
	for run, want := range serial {
		got, ok := parallel[run]
		if !ok {
			t.Fatalf("run %s missing from the parallel trace", run)
		}
		if got != want {
			t.Fatalf("run %s trace differs between 1 and 4 workers:\n--- serial\n%s\n--- parallel\n%s",
				run, want, got)
		}
	}
}

// TestTraceDeterministic: two observed runs of one config capture identical
// event streams.
func TestTraceDeterministic(t *testing.T) {
	cfg := testConfig(2, LeastOutstanding)
	cfg.RetryAfterNS = 4e6
	a, _ := json.Marshal(collectTrace(t, cfg))
	b, _ := json.Marshal(collectTrace(t, cfg))
	if string(a) != string(b) {
		t.Fatal("fleet trace not deterministic across identical runs")
	}
}

// BenchmarkFleetTelemetry prices the request-tracing layer. recorder-off is
// the baseline every non-observed fleet run pays (and must stay within noise
// of the pre-tracing fleet driver); recorder-on shows the cost of full
// capture; jsonl-roundtrip is the whole `fleet -telemetry` → `obsreport
// -fleet -trace-out` path in memory (JSONL encode, DecodeStream, BuildFleet,
// Perfetto render); hook-disabled isolates the one-branch discipline — with
// no recorder the tracer is a nil pointer and every hot-path hook must cost
// zero allocations (the bench gate fails on any, since the committed
// baseline records zero).
func BenchmarkFleetTelemetry(b *testing.B) {
	cfg := testConfig(2, GCAware)
	cfg.RetryAfterNS = 4e6
	b.Run("recorder-off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(workload.MicroPauseProbe, cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recorder-on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf obs.Buffer
			if _, err := Run(workload.MicroPauseProbe, cfg, &buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("jsonl-roundtrip", func(b *testing.B) {
		b.ReportAllocs()
		var stream bytes.Buffer
		for i := 0; i < b.N; i++ {
			stream.Reset()
			rec := obs.NewJSONL(&stream)
			if _, err := Run(workload.MicroPauseProbe, cfg, rec); err != nil {
				b.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				b.Fatal(err)
			}
			var events []obs.Event
			if _, err := obs.DecodeStream(&stream, func(e obs.Event) error {
				events = append(events, e)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			if err := traceview.WriteFleetChrome(io.Discard, span.BuildFleet(events)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hook-disabled", func(b *testing.B) {
		var tr *tracer
		dec := Decision{Replica: 1, Reason: ReasonRoundRobin}
		b.ReportAllocs()
		// 4096 hook quads per op: at -benchtime=1x a single quad is timer
		// noise, and the gate compares ns/op medians.
		for i := 0; i < b.N; i++ {
			for j := 0; j < 4096; j++ {
				tr.route(int64(j), int32(j), dec)
				tr.dispatched(int32(j), sim.Time(j))
				tr.complete(0, workload.Completion{ID: int32(j)}, true)
				tr.finish(int64(j))
			}
		}
	})
}
