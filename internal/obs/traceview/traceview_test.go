package traceview_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"chopin/internal/obs"
	"chopin/internal/obs/span"
	"chopin/internal/obs/traceview"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureTrees is a fixed event stream exercising every span kind, a mark,
// an open (truncated) span and sampled counters, across two interleaved
// runs.
func fixtureTrees() []*span.Tree {
	return span.Build([]obs.Event{
		{Kind: obs.KindGCPhaseStart, TNS: 100, Run: obs.Intern("job-a"), Benchmark: obs.Intern("lusearch"), Collector: obs.Intern("Shenandoah"), Phase: obs.Intern("concurrent"), Cycle: 1},
		{Kind: obs.KindGCPause, TNS: 120, Run: obs.Intern("job-a"), DurNS: 20, Cycle: 1},
		{Kind: obs.KindPacerStall, TNS: 150, Run: obs.Intern("job-a"), DurNS: 30, Cause: 1},
		{Kind: obs.KindSample, TNS: 160, Run: obs.Intern("job-a"), HeapUsed: 48 << 20, LiveEst: 24 << 20, MutFrac: 0.625, GCFrac: 0.25, StallFrac: 0.125},
		{Kind: obs.KindGCPhaseStart, TNS: 60, Run: obs.Intern("job-b"), Benchmark: obs.Intern("avrora"), Collector: obs.Intern("G1"), Phase: obs.Intern("young"), Cycle: 1},
		{Kind: obs.KindGCPhaseEnd, TNS: 90, Run: obs.Intern("job-b"), Phase: obs.Intern("young"), Cycle: 1, DurNS: 30, CPUNS: 120, Value: 2048},
		{Kind: obs.KindGCPause, TNS: 90, Run: obs.Intern("job-b"), DurNS: 30, Cycle: 1},
		{Kind: obs.KindDegenerateGC, TNS: 200, Run: obs.Intern("job-a"), Cause: 1},
		{Kind: obs.KindGCPhaseEnd, TNS: 200, Run: obs.Intern("job-a"), Phase: obs.Intern("concurrent"), Cycle: 1, CPUNS: 5.5e6},
		{Kind: obs.KindGCPhaseStart, TNS: 200, Run: obs.Intern("job-a"), Phase: obs.Intern("degenerate"), Cycle: 2, Cause: 1},
		{Kind: obs.KindGCPause, TNS: 260, Run: obs.Intern("job-a"), DurNS: 60, Cycle: 2},
		{Kind: obs.KindGCPhaseEnd, TNS: 260, Run: obs.Intern("job-a"), Phase: obs.Intern("degenerate"), Cycle: 2, DurNS: 60, Value: 4096},
		{Kind: obs.KindQuiescent, TNS: 500, Run: obs.Intern("job-a"), DurNS: 500, Value: 12},
		// job-b truncates: this start never sees its end.
		{Kind: obs.KindGCPhaseStart, TNS: 120, Run: obs.Intern("job-b"), Phase: obs.Intern("concurrent"), Cycle: 2},
		{Kind: obs.KindQuiescent, TNS: 300, Run: obs.Intern("job-b"), DurNS: 300, Value: 4},
	})
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
		t.Errorf("%s drifted from golden file (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// TestChromeTraceGolden locks the Chrome trace-event output byte-for-byte:
// field order, timestamp unit and metadata layout are all part of the
// contract with external viewers.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := traceview.WriteChromeTrace(&buf, fixtureTrees()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "synthetic.trace.json", buf.Bytes())
}

// TestChromeTraceSpecRequiredKeys validates the output against the
// trace-event spec independent of the golden bytes: it must be valid JSON
// whose every event carries name/ph/pid/tid, with ts+dur on complete
// events, ts on counters and instants, and named process/thread metadata.
func TestChromeTraceSpecRequiredKeys(t *testing.T) {
	var buf bytes.Buffer
	trees := fixtureTrees()
	if err := traceview.WriteChromeTrace(&buf, trees); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	var complete, counters, instants, procs, threads int
	for _, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing required key %q: %v", key, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			complete++
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("complete event missing ts: %v", ev)
			}
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
		case "C":
			counters++
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("counter event missing ts: %v", ev)
			}
		case "i":
			instants++
		case "M":
			switch ev["name"] {
			case "process_name":
				procs++
			case "thread_name":
				threads++
			}
		default:
			t.Fatalf("unexpected phase %v: %v", ev["ph"], ev)
		}
	}
	var spans int
	for _, tr := range trees {
		spans += len(tr.Spans)
	}
	if complete != spans {
		t.Errorf("complete events = %d, spans = %d", complete, spans)
	}
	if counters != 2 { // one heap + one cpu counter per sample
		t.Errorf("counter events = %d, want 2", counters)
	}
	if instants != 1 {
		t.Errorf("instant events = %d, want 1", instants)
	}
	if procs != len(trees) {
		t.Errorf("process_name events = %d, trees = %d", procs, len(trees))
	}
	if threads != 4*len(trees) {
		t.Errorf("thread_name events = %d, want %d", threads, 4*len(trees))
	}
}

// TestChromeTraceDeterministic re-renders the same trees and demands
// identical bytes — no map-iteration or formatting nondeterminism.
func TestChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := traceview.WriteChromeTrace(&a, fixtureTrees()); err != nil {
		t.Fatal(err)
	}
	if err := traceview.WriteChromeTrace(&b, fixtureTrees()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of the same trees differ")
	}
}

// TestTimelineGolden locks the terminal renderer's layout.
func TestTimelineGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := traceview.WriteTimeline(&buf, fixtureTrees(), 60); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "synthetic.timeline.txt", buf.Bytes())
}
