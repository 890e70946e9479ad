package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chopin/internal/gc"
	"chopin/internal/obs"
	"chopin/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The golden determinism fixtures lock the invocation hot path's observable
// behaviour byte-for-byte: the full trace.Log (GC events, pause intervals,
// stall time), the complete telemetry stream (including sampler ticks), the
// per-iteration measurements and the recorded latency events, for every
// collector under both request disciplines, plus the OOM/degeneration paths.
// They were recorded before the pooled-continuation refactor of the runner
// and the collector's bump-allocation fast path, and any refactor of those
// layers must reproduce them exactly (run with -update only after an
// intentional behaviour change, never to paper over drift).
//
// Floats are formatted at 12 significant digits: enough to pin behaviour,
// while tolerating the last-ULP reassociation slack of computing the same
// aggregate in a different summation order (the same slack telemetry_test.go
// grants when reconciling stream sums against log totals).

// goldenCase is one fixture: a workload, a collector, a loop discipline, and
// a heap sizing chosen to exercise a particular regime.
type goldenCase struct {
	name       string
	workload   string
	collector  gc.Kind
	openLoop   bool
	heapFactor float64 // multiplies the workload's LiveMB
	wantOOM    bool
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	// The full collector x discipline matrix runs avrora (the suite's lowest
	// allocation rate) so each fixture stays a few hundred KB while still
	// collecting: at 2.2x live pressure the heap turns over continuously.
	for _, k := range gc.AllKinds {
		lower := strings.ToLower(k.String())
		cases = append(cases,
			goldenCase{name: lower + "-closed", workload: "avrora", collector: k, heapFactor: 2.2},
			goldenCase{name: lower + "-open", workload: "avrora", collector: k, openLoop: true, heapFactor: 2.2},
		)
	}
	// The stress pair: fop's high allocation-rate-to-live ratio under
	// Shenandoah at 2x exercises the pacer, concurrent cycles and (usually)
	// degenerations in a run that still completes.
	cases = append(cases,
		goldenCase{name: "stress-shenandoah-closed", workload: "fop", collector: gc.Shenandoah, heapFactor: 2.0},
		goldenCase{name: "stress-shenandoah-open", workload: "fop", collector: gc.Shenandoah, openLoop: true, heapFactor: 2.0},
	)
	// The failure paths: a heap below the live set must OOM after the
	// collector exhausts every option, under both disciplines.
	cases = append(cases,
		goldenCase{name: "oom-closed", workload: "avrora", collector: gc.Shenandoah, heapFactor: 0.5, wantOOM: true},
		goldenCase{name: "oom-open", workload: "avrora", collector: gc.Shenandoah, openLoop: true, heapFactor: 0.5, wantOOM: true},
	)
	return cases
}

// TestGoldenDeterminism runs each golden case and compares the serialized
// run against its committed fixture.
func TestGoldenDeterminism(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			d, err := ByName(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			rec := &sliceRecorder{}
			cfg := RunConfig{
				HeapMB:        d.LiveMB * tc.heapFactor,
				Collector:     tc.collector,
				Iterations:    2,
				Events:        300,
				Seed:          11,
				RecordLatency: true,
				OpenLoop:      tc.openLoop,
				Recorder:      rec,
			}
			if tc.openLoop {
				// Below saturation, as a real load test would drive.
				cfg.OpenLoopHeadroom = 1.5
			}
			res, err := Run(d, cfg)
			if tc.wantOOM && err == nil {
				t.Fatalf("%s: expected OutOfMemory, run succeeded", tc.name)
			}
			if !tc.wantOOM && err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got := serializeRun(d.Name, cfg, res, err, rec.events)
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from its pre-refactor golden (run with -update only after an intentional behaviour change)\n%s",
					tc.name, diffHint(got, want))
			}
		})
	}
}

// TestModelDigest checks ModelDigest against the golden fixtures, so a
// fixture updated on purpose moves every experiment cache key with it. Run
// after -update: the failure prints the constant the new fixtures need.
func TestModelDigest(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(goldenCases()) {
		t.Fatalf("%s holds %d files, want one per golden case (%d)", dir, len(entries), len(goldenCases()))
	}
	h := sha256.New()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(data))
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != ModelDigest {
		t.Errorf("the golden fixtures changed: set ModelDigest = %q (internal/workload/workload.go)", got)
	}
}

// TestGoldenRerunIdentical guards the serializer itself: two identical runs
// must serialize identically, or fixture mismatches would be unactionable.
func TestGoldenRerunIdentical(t *testing.T) {
	d, err := ByName("lusearch")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		rec := &sliceRecorder{}
		cfg := RunConfig{
			HeapMB: d.LiveMB * 2.2, Collector: gc.G1, Iterations: 2,
			Events: 300, Seed: 11, RecordLatency: true, Recorder: rec,
		}
		res, err := Run(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return serializeRun(d.Name, cfg, res, err, rec.events)
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("identical runs serialized differently")
	}
}

// diffHint reports the first line where got and want diverge.
func diffHint(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("first divergence at line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}

// f formats a float at 12 significant digits (see the package comment above
// for why not full precision).
func f(v float64) string { return fmt.Sprintf("%.12g", v) }

// fm formats the sampler's mutator-utilisation gauge. MutFrac is the one
// serialized quantity derived by subtracting two large, nearly-equal CPU
// aggregates over a short window (catastrophic cancellation), so a mere
// change in the aggregates' summation order moves it by up to ~1e-12
// relative — and flips the sign of an exact zero — far beyond the last-ULP
// slack the other fields need. Nine significant digits with an absolute
// floor at 1e-9 (pure subtraction residue) still pin the gauge several
// orders of magnitude tighter than anything consumers read off it.
func fm(v float64) string {
	if math.Abs(v) < 1e-9 {
		return "0"
	}
	return fmt.Sprintf("%.9g", v)
}

// serializeRun renders one invocation's complete observable output as
// deterministic text.
func serializeRun(workload string, cfg RunConfig, res *Result, runErr error, events []obs.Event) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "run workload=%s collector=%s openloop=%v heapMB=%s events=%d iters=%d seed=%d\n",
		workload, cfg.Collector, cfg.OpenLoop, f(cfg.HeapMB), cfg.Events, cfg.Iterations, cfg.Seed)
	if runErr != nil {
		fmt.Fprintf(&b, "err: %v\n", runErr)
	} else {
		fmt.Fprintf(&b, "err: <nil>\n")
	}
	if res != nil {
		for i, it := range res.Iterations {
			fmt.Fprintf(&b, "iter[%d]: wall=%s cpu=%s kernel=%s alloc=%s start=%d end=%d\n",
				i, f(it.WallNS), f(it.CPUNS), f(it.KernelNS), f(it.Allocated), it.StartNS, it.EndNS)
		}
		fmt.Fprintf(&b, "result: gccpu=%s mutcpu=%s\n", f(res.GCCPUNS), f(res.MutatorCPUNS))
		serializeLog(&b, res.Log)
		for i, e := range res.Events {
			fmt.Fprintf(&b, "latency[%d]: %d %d\n", i, e.Start, e.End)
		}
	}
	for i, e := range events {
		serializeTelemetry(&b, i, e)
	}
	return b.Bytes()
}

func serializeLog(b *bytes.Buffer, log *trace.Log) {
	fmt.Fprintf(b, "log: stall=%s pauses=%d events=%d\n", f(log.StallNS), len(log.Pauses), len(log.Events))
	for i, p := range log.Pauses {
		fmt.Fprintf(b, "pause[%d]: %d %d\n", i, p.Start, p.End)
	}
	for i, e := range log.Events {
		fmt.Fprintf(b, "gcevent[%d]: kind=%s start=%d end=%d pause=%s cpu=%s reclaimed=%s copied=%s usedafter=%s liveafter=%s\n",
			i, e.Kind, e.Start, e.End, f(e.PauseNS), f(e.CPUNS), f(e.Reclaimed), f(e.Copied), f(e.UsedAfter), f(e.LiveAfter))
	}
}

func serializeTelemetry(b *bytes.Buffer, i int, e obs.Event) {
	fmt.Fprintf(b, "telemetry[%d]: kind=%s t=%d", i, e.Kind, e.TNS)
	if e.Phase != 0 {
		fmt.Fprintf(b, " phase=%s", e.Phase)
	}
	if e.DurNS != 0 {
		fmt.Fprintf(b, " dur=%s", f(e.DurNS))
	}
	if e.CPUNS != 0 {
		fmt.Fprintf(b, " cpu=%s", f(e.CPUNS))
	}
	if e.Value != 0 {
		fmt.Fprintf(b, " value=%s", f(e.Value))
	}
	if e.Aux != 0 {
		fmt.Fprintf(b, " aux=%s", f(e.Aux))
	}
	if e.Cycle != 0 {
		fmt.Fprintf(b, " cycle=%d", e.Cycle)
	}
	if e.Cause != 0 {
		fmt.Fprintf(b, " cause=%d", e.Cause)
	}
	if e.Kind == obs.KindSample {
		fmt.Fprintf(b, " heap=%s live=%s mut=%s gc=%s stallfrac=%s",
			f(e.HeapUsed), f(e.LiveEst), fm(e.MutFrac), f(e.GCFrac), f(e.StallFrac))
	}
	if e.Err != 0 {
		fmt.Fprintf(b, " err=%s", e.Err)
	}
	fmt.Fprintf(b, "\n")
}
