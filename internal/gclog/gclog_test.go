package gclog

import (
	"math"
	"strings"
	"testing"

	"chopin/internal/gc"
	"chopin/internal/trace"
	"chopin/internal/workload"
)

func sampleLog() *trace.Log {
	l := &trace.Log{}
	l.AddEvent(trace.GCEvent{Kind: trace.GCYoung, Start: 100e6, End: 101e6,
		PauseNS: 1e6, CPUNS: 8e6, Reclaimed: 19 * mb, UsedAfter: 12 * mb})
	l.AddEvent(trace.GCEvent{Kind: trace.GCConcurrent, Start: 200e6, End: 410e6,
		PauseNS: 0, CPUNS: 801e6, Reclaimed: 25 * mb, UsedAfter: 20 * mb})
	l.AddEvent(trace.GCEvent{Kind: trace.GCFull, Start: 500e6, End: 512e6,
		PauseNS: 12e6, CPUNS: 48e6, Reclaimed: 30 * mb, UsedAfter: 10 * mb})
	l.AddPause(trace.Pause{Start: 100e6, End: 101e6})
	l.AddPause(trace.Pause{Start: 500e6, End: 512e6})
	l.AddStall(3.5e6)
	return l
}

func TestFormatShape(t *testing.T) {
	out := Format(sampleLog(), 128)
	for _, want := range []string{
		"[info][gc] GC(0) Pause Young (Normal) 31M->12M(128M) 1.000ms cpu=8.000ms",
		"GC(1) Concurrent Cycle 45M->20M(128M)",
		"GC(2) Pause Full (Allocation Failure) 40M->10M(128M) 12.000ms",
		"Allocation stall total 3.500ms",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("log missing %q:\n%s", want, out)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	orig := sampleLog()
	text := Format(orig, 128)
	parsed, capMB, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if capMB != 128 {
		t.Fatalf("capacity = %v, want 128", capMB)
	}
	if len(parsed.Events) != len(orig.Events) {
		t.Fatalf("events = %d, want %d", len(parsed.Events), len(orig.Events))
	}
	for i, e := range parsed.Events {
		o := orig.Events[i]
		if e.Kind != o.Kind {
			t.Errorf("event %d kind = %v, want %v", i, e.Kind, o.Kind)
		}
		if math.Abs(e.PauseNS-o.PauseNS) > 1e3 {
			t.Errorf("event %d pause = %v, want %v", i, e.PauseNS, o.PauseNS)
		}
		if math.Abs(e.CPUNS-o.CPUNS) > 1e3 {
			t.Errorf("event %d cpu = %v, want %v", i, e.CPUNS, o.CPUNS)
		}
		if math.Abs(e.UsedAfter-o.UsedAfter) > mb {
			t.Errorf("event %d used = %v, want %v", i, e.UsedAfter, o.UsedAfter)
		}
		if math.Abs(e.Reclaimed-o.Reclaimed) > mb {
			t.Errorf("event %d reclaimed = %v, want %v", i, e.Reclaimed, o.Reclaimed)
		}
	}
	if math.Abs(parsed.StallNS-orig.StallNS) > 1e3 {
		t.Errorf("stall = %v, want %v", parsed.StallNS, orig.StallNS)
	}
	// Pauses reconstructed for pausing events only.
	if len(parsed.Pauses) != 2 {
		t.Errorf("pauses = %d, want 2", len(parsed.Pauses))
	}
}

func TestParseSkipsForeignLines(t *testing.T) {
	text := "[0.001s][info][init] bootstrapping\n" +
		"[0.100s][info][gc] GC(0) Pause Young (Normal) 31M->12M(128M) 1.000ms cpu=8.000ms\n" +
		"[0.200s][warning][os] something unrelated\n"
	l, _, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(l.Events))
	}
}

func TestParseCountsUnknownLabel(t *testing.T) {
	// An unrecognized GC description is a malformed line, not a fatal parse:
	// a reader pointed at a foreign JDK's log should lose that event only.
	text := "[0.100s][info][gc] GC(0) Pause Shiny (Experimental) 31M->12M(128M) 1.000ms cpu=8.000ms\n" +
		"[0.200s][info][gc] GC(1) Pause Young (Normal) 31M->12M(128M) 1.000ms cpu=8.000ms\n"
	r, err := ParseAll(text)
	if err != nil {
		t.Fatal(err)
	}
	if r.Malformed != 1 {
		t.Fatalf("malformed = %d, want 1", r.Malformed)
	}
	if len(r.Log.Events) != 1 || r.Log.Events[0].Kind != trace.GCYoung {
		t.Fatalf("surviving events = %+v, want the one young GC", r.Log.Events)
	}
}

// TestCorruptedLogRoundTrip formats a real log, damages it the ways real
// logs get damaged — truncated tail, garbage mid-stream, a torn line — and
// checks the parse recovers every undamaged event with an exact count of the
// damage.
func TestCorruptedLogRoundTrip(t *testing.T) {
	orig := sampleLog()
	text := Format(orig, 128)
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	// sampleLog renders 3 event lines + 1 stall line.
	if len(lines) != 4 {
		t.Fatalf("sample rendered %d lines, want 4", len(lines))
	}

	corrupted := []string{
		lines[0],                    // intact young GC
		lines[1][:len(lines[1])-17], // concurrent cycle torn mid-field
		"[0.300s][info][gc] GC(9) Pause Young (No", // truncated by a crash
		"[0.301s][debug][jit] compiled something",  // interleaved foreign tag: silent skip
		"\x00\x00garbage][gc] GC(",                 // binary garbage that still smells of GC
		lines[2],                                   // intact full GC
		lines[3],                                   // intact stall summary
	}
	r, err := ParseAll(strings.Join(corrupted, "\n") + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if r.Malformed != 3 {
		t.Fatalf("malformed = %d, want 3", r.Malformed)
	}
	if r.CapacityMB != 128 {
		t.Fatalf("capacity = %v, want 128", r.CapacityMB)
	}
	if len(r.Log.Events) != 2 {
		t.Fatalf("events = %d, want the 2 intact ones", len(r.Log.Events))
	}
	if r.Log.Events[0].Kind != trace.GCYoung || r.Log.Events[1].Kind != trace.GCFull {
		t.Fatalf("surviving kinds = %v, %v; want young, full",
			r.Log.Events[0].Kind, r.Log.Events[1].Kind)
	}
	if math.Abs(r.Log.StallNS-orig.StallNS) > 1e3 {
		t.Fatalf("stall = %v, want %v", r.Log.StallNS, orig.StallNS)
	}
	if math.Abs(r.Log.TotalPauseNS()-(orig.Events[0].PauseNS+orig.Events[2].PauseNS)) > 1e3 {
		t.Fatalf("pause total = %v", r.Log.TotalPauseNS())
	}
}

func TestParseTruncatedFinalLine(t *testing.T) {
	// A run killed mid-write leaves a partial last line; everything before it
	// must survive and the tear must be counted, not fatal.
	text := Format(sampleLog(), 128)
	cut := text[:len(text)-10] // tears the trailing stall line mid-number
	r, err := ParseAll(cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Log.Events) != 3 {
		t.Fatalf("events = %d, want 3 (tear hit only the stall line)", len(r.Log.Events))
	}
	if r.Malformed != 1 {
		t.Fatalf("malformed = %d, want 1", r.Malformed)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sampleLog())
	for _, want := range []string{"3 collections", "1 young", "1 full", "1 concurrent",
		"13.0ms total pause", "max 12.00ms"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q: %s", want, s)
		}
	}
}

func TestRealRunRoundTrips(t *testing.T) {
	// End-to-end: simulate, format, parse; the totals the methodologies use
	// must survive the text round trip.
	res, err := workload.Run(workload.H2o, workload.RunConfig{
		HeapMB: 2 * workload.H2o.MinHeapMB, Collector: gc.G1,
		Iterations: 2, Events: 400, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	text := Format(res.Log, 2*workload.H2o.MinHeapMB)
	parsed, _, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Events) != len(res.Log.Events) {
		t.Fatalf("events = %d, want %d", len(parsed.Events), len(res.Log.Events))
	}
	// Totals within formatting precision (3 decimals of ms per event).
	tol := float64(len(parsed.Events)) * 1e3
	if math.Abs(parsed.TotalGCCPUNS()-res.Log.TotalGCCPUNS()) > tol {
		t.Fatalf("gc cpu drifted: %v vs %v", parsed.TotalGCCPUNS(), res.Log.TotalGCCPUNS())
	}
	if math.Abs(parsed.TotalPauseNS()-res.Log.TotalPauseNS()) > tol {
		t.Fatalf("pause total drifted: %v vs %v", parsed.TotalPauseNS(), res.Log.TotalPauseNS())
	}
}

// FuzzParseAll: parsing never panics, and either fails (the one error, a
// line past the scanner's buffer) or yields a log that formats to a fixed
// point: Format's text parses with no malformed line back to a log that
// formats to the same text. The committed corpus
// (testdata/fuzz/FuzzParseAll) holds a real G1 log, the same log torn
// mid-line and interleaved with other unified-logging tags, a log with an
// allocation-stall line, and lines with fields out of range.
func FuzzParseAll(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		res, err := ParseAll(text)
		if err != nil {
			return
		}
		once := Format(res.Log, res.CapacityMB)
		again, err := ParseAll(once)
		if err != nil {
			t.Fatalf("formatted log does not parse: %v", err)
		}
		if again.Malformed != 0 || len(again.Log.Events) != len(res.Log.Events) {
			t.Fatalf("formatted log parses to %d events and %d malformed lines, want %d and 0:\n%s",
				len(again.Log.Events), again.Malformed, len(res.Log.Events), once)
		}
		if twice := Format(again.Log, again.CapacityMB); twice != once {
			t.Fatalf("formatting is not a fixed point:\n once  %q\n twice %q", once, twice)
		}
	})
}
