package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateSched = flag.Bool("update-sched", false, "rewrite the scheduler-table golden file")

func schedEvent(worker int, busy, steal, park, tasks, steals, qmax float64) Event {
	return Event{
		Kind: KindSchedWorker, TNS: 1, Value: float64(worker),
		BusyNS: busy, StealNS: steal, ParkNS: park,
		Tasks: tasks, Steals: steals, QueueMax: qmax,
	}
}

// TestWriteSchedTableGolden pins the one-screen utilization table obsreport
// -sched renders: per-worker busy/steal/park splits, busy share, task
// counts, steal counts, deque high-water marks and the totals row.
func TestWriteSchedTableGolden(t *testing.T) {
	events := []Event{
		{Kind: KindJobStart, TNS: 1}, // non-scheduler events are ignored
		schedEvent(0, 812_400_000, 12_300_000, 101_000_000, 134, 9, 37),
		schedEvent(1, 790_100_000, 25_800_000, 110_600_000, 134, 17, 29),
		schedEvent(2, 640_000_000, 4_100_000, 282_000_000, 98, 2, 31),
		schedEvent(3, 12_500_000, 900_000, 913_000_000, 4, 1, 2),
	}
	var buf bytes.Buffer
	WriteSchedTable(&buf, events)

	golden := filepath.Join("testdata", "sched_table.golden")
	if *updateSched {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update-sched to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("scheduler table drifted from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestWriteSchedTableEmpty pins that a stream without scheduler events
// renders nothing rather than an empty table frame.
func TestWriteSchedTableEmpty(t *testing.T) {
	var buf bytes.Buffer
	WriteSchedTable(&buf, []Event{{Kind: KindJobStart}})
	if buf.Len() != 0 {
		t.Errorf("expected no output for a stream without sched events, got:\n%s", buf.String())
	}
}

// TestSchedWorkerRoundTrip pins that the dedicated scheduler fields survive
// the JSONL encode/decode path obsreport consumes.
func TestSchedWorkerRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	j := NewJSONL(&sink)
	in := schedEvent(2, 1e9, 2e6, 3e7, 45, 7, 12)
	j.Record(in)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var out []Event
	if _, err := DecodeStream(&sink, func(e Event) error {
		if e.Kind == KindSchedWorker {
			out = append(out, e)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("decoded %d sched events, want 1", len(out))
	}
	got := out[0]
	if got.BusyNS != in.BusyNS || got.StealNS != in.StealNS || got.ParkNS != in.ParkNS ||
		got.Tasks != in.Tasks ||
		got.Steals != in.Steals || got.QueueMax != in.QueueMax || got.Value != in.Value {
		t.Fatalf("scheduler fields did not round-trip: got %+v want %+v", got, in)
	}
}
