package fleet

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"chopin/internal/gc"
	"chopin/internal/latency"
	"chopin/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testConfig is a small, fast fleet cell over the pause-probe micro
// workload.
func testConfig(replicas int, pol Policy) Config {
	d := workload.MicroPauseProbe
	return Config{
		Replicas: replicas,
		Policy:   pol,
		Requests: 300 * replicas,
		Run: workload.RunConfig{
			HeapMB:     2 * d.MinHeapMB,
			Collector:  gc.G1,
			Iterations: 1,
			Events:     300,
			Seed:       42,
		},
	}
}

// TestSingleReplicaOracle is the degeneration invariant the whole fleet
// layer is built on: a one-replica fleet under constant-rate arrivals IS the
// standalone open-loop runner — same seed, byte-for-byte the same latency
// events. Any drift here means the fleet driver perturbs the simulation it
// claims merely to interleave.
func TestSingleReplicaOracle(t *testing.T) {
	d := workload.MicroPauseProbe
	rcfg := workload.RunConfig{
		HeapMB:     2 * d.MinHeapMB,
		Collector:  gc.G1,
		Iterations: 1,
		Events:     600,
		Seed:       42,
		OpenLoop:   true,
	}
	res, err := workload.Run(d, rcfg)
	if err != nil {
		t.Fatal(err)
	}

	fr, err := newFleetRun(d, Config{Replicas: 1, Run: rcfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.run(); err != nil {
		t.Fatal(err)
	}
	if fr.retried != 0 {
		t.Fatalf("retried = %d without retries configured", fr.retried)
	}
	got := fr.reps[0].Latencies()
	if len(got) != len(res.Events) {
		t.Fatalf("fleet served %d events, standalone %d", len(got), len(res.Events))
	}
	for i := range got {
		if got[i] != res.Events[i] {
			t.Fatalf("event %d diverged: fleet %+v, standalone %+v",
				i, got[i], res.Events[i])
		}
	}
}

// TestRunDeterministic: identical configs give byte-identical reports.
func TestRunDeterministic(t *testing.T) {
	cfg := testConfig(3, GCAware)
	cfg.Arrival = ArrivalSpec{Kind: ArrivalPoisson}
	cfg.RetryAfterNS = 5e6

	run := func() []byte {
		rep, err := Run(workload.MicroPauseProbe, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("fleet run not deterministic:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestGoldenReport pins the full report of a seeded three-replica fleet.
// Regenerate deliberately with -update; an unexplained diff is a determinism
// or semantics regression.
func TestGoldenReport(t *testing.T) {
	cfg := testConfig(3, LeastOutstanding)
	rep, err := Run(workload.MicroPauseProbe, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	path := filepath.Join("testdata", "report_pauseprobe_n3.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(data) != string(want) {
		t.Fatalf("report drifted from golden %s (re-run with -update if intended):\n%s", path, data)
	}
}

// TestReportShape sanity-checks the derived metrics of a multi-replica run.
func TestReportShape(t *testing.T) {
	cfg := testConfig(3, RoundRobin)
	rep, err := Run(workload.MicroPauseProbe, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicas != 3 || len(rep.PerReplica) != 3 {
		t.Fatalf("replicas = %d / %d stats", rep.Replicas, len(rep.PerReplica))
	}
	if rep.Completions != int64(rep.Requests) {
		t.Fatalf("completions %d != requests %d (no retries configured)",
			rep.Completions, rep.Requests)
	}
	// Round-robin spreads a 900-request run evenly over 3 replicas.
	for _, rs := range rep.PerReplica {
		if rs.Served != 300 {
			t.Fatalf("replica %d served %d, want 300 under round-robin", rs.Index, rs.Served)
		}
		if rs.TaskClockNS <= 0 || rs.HeapPeakMB <= 0 {
			t.Fatalf("replica %d missing resource totals: %+v", rs.Index, rs)
		}
	}
	if !(rep.P50NS <= rep.P99NS && rep.P99NS <= rep.P999NS) {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v p99.9=%v",
			rep.P50NS, rep.P99NS, rep.P999NS)
	}
	if rep.WallNS <= 0 || rep.OfferedRate <= 0 {
		t.Fatalf("wall=%v rate=%v", rep.WallNS, rep.OfferedRate)
	}
	if rep.HostCPU <= 0 || rep.HostSaturated {
		t.Fatalf("host CPU %v (saturated=%v) with fully provisioned cores",
			rep.HostCPU, rep.HostSaturated)
	}
	if len(rep.SLAs) != len(latency.DefaultSLAs) {
		t.Fatalf("SLA rungs = %d, want default ladder %d", len(rep.SLAs), len(latency.DefaultSLAs))
	}
}

// TestRetryStorm: an absurdly tight retry bound re-injects every request up
// to the retry cap, and the report flags the storm.
func TestRetryStorm(t *testing.T) {
	cfg := testConfig(2, LeastOutstanding)
	cfg.RetryAfterNS = 1 // everything "times out"
	cfg.MaxRetries = 2
	rep, err := Run(workload.MicroPauseProbe, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRetries := int64(2 * rep.Requests)
	if rep.Retries != wantRetries {
		t.Fatalf("retries = %d, want %d (every request to the cap)", rep.Retries, wantRetries)
	}
	if rep.Completions != int64(rep.Requests)+rep.Retries {
		t.Fatalf("completions %d != requests %d + retries %d",
			rep.Completions, rep.Requests, rep.Retries)
	}
	if !rep.RetryStorm {
		t.Fatal("retry storm not flagged at 200% retry rate")
	}
}

// TestGCAwareNotWorse: routing around pauses should not hurt the tail
// relative to round-robin on the same seed and load.
func TestGCAwarePolicyRuns(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastOutstanding, GCAware} {
		rep, err := Run(workload.MicroPauseProbe, testConfig(2, pol), nil)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if rep.Policy != pol || rep.Completions != int64(rep.Requests) {
			t.Fatalf("%s: report %+v", pol, rep)
		}
	}
}

// TestDegenerateConfigError: a zero-event schedule surfaces the open-loop
// config error instead of dividing to +Inf.
func TestDegenerateConfigError(t *testing.T) {
	d := *workload.MicroPauseProbe
	d.Events = 0
	cfg := testConfig(1, RoundRobin)
	cfg.Requests = 10
	cfg.Run.Events = 0
	_, err := Run(&d, cfg, nil)
	if err == nil {
		t.Fatal("zero-event fleet config did not error")
	}
}

func TestBadArrivalSpec(t *testing.T) {
	cfg := testConfig(1, RoundRobin)
	cfg.Arrival = ArrivalSpec{Kind: ArrivalPareto, Alpha: 0.5}
	if _, err := Run(workload.MicroPauseProbe, cfg, nil); err == nil {
		t.Fatal("alpha <= 1 accepted")
	}
	cfg.Arrival = ArrivalSpec{Kind: "drizzle"}
	if _, err := Run(workload.MicroPauseProbe, cfg, nil); err == nil {
		t.Fatal("unknown arrival kind accepted")
	}
}
