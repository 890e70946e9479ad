package trace

import "testing"

func sampleLog() *Log {
	l := &Log{}
	l.AddEvent(GCEvent{Kind: GCYoung, Start: 0, End: 100, PauseNS: 100, CPUNS: 100, Reclaimed: 50})
	l.AddEvent(GCEvent{Kind: GCYoung, Start: 500, End: 650, PauseNS: 150, CPUNS: 300, Reclaimed: 70})
	l.AddEvent(GCEvent{Kind: GCFull, Start: 900, End: 1400, PauseNS: 500, CPUNS: 900, Reclaimed: 200})
	l.AddPause(Pause{0, 100})
	l.AddPause(Pause{500, 650})
	l.AddPause(Pause{900, 1400})
	return l
}

func TestTotals(t *testing.T) {
	l := sampleLog()
	if got := l.TotalPauseNS(); got != 750 {
		t.Fatalf("total pause = %v, want 750", got)
	}
	if got := l.TotalGCCPUNS(); got != 1300 {
		t.Fatalf("total GC CPU = %v, want 1300", got)
	}
	if got := l.MaxPauseNS(); got != 500 {
		t.Fatalf("max pause = %v, want 500", got)
	}
}

func TestCount(t *testing.T) {
	l := sampleLog()
	if l.Count(GCYoung) != 2 || l.Count(GCFull) != 1 || l.Count(GCConcurrent) != 0 {
		t.Fatalf("counts wrong: young=%d full=%d conc=%d",
			l.Count(GCYoung), l.Count(GCFull), l.Count(GCConcurrent))
	}
}

func TestStallAccumulation(t *testing.T) {
	l := &Log{}
	l.AddStall(100)
	l.AddStall(250)
	if l.StallNS != 350 {
		t.Fatalf("stall = %v, want 350", l.StallNS)
	}
}

func TestReset(t *testing.T) {
	l := sampleLog()
	l.AddStall(10)
	l.Reset()
	if len(l.Events) != 0 || len(l.Pauses) != 0 || l.StallNS != 0 {
		t.Fatal("reset did not clear the log")
	}
}

func TestKindString(t *testing.T) {
	want := map[GCKind]string{
		GCYoung: "young", GCFull: "full", GCConcurrent: "concurrent",
		GCDegenerate: "degenerate", GCMixed: "mixed", GCKind(42): "gc(42)",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("%d.String() = %q, want %q", k, got, s)
		}
	}
}

func TestPauseDuration(t *testing.T) {
	if got := (Pause{Start: 10, End: 35}).Duration(); got != 25 {
		t.Fatalf("duration = %v, want 25", got)
	}
}

func TestFootprintAUC(t *testing.T) {
	l := &Log{}
	// Occupancy staircase: 100 bytes until t=400, then 50 until t=1000.
	l.AddEvent(GCEvent{Kind: GCYoung, End: 0, UsedAfter: 100})
	l.AddEvent(GCEvent{Kind: GCYoung, End: 400, UsedAfter: 50})
	got := l.FootprintAUC(0, 1000)
	want := (100*400 + 50*600) / 1000.0
	if got != want {
		t.Fatalf("AUC = %v, want %v", got, want)
	}
}

func TestFootprintAUCWindowed(t *testing.T) {
	l := &Log{}
	l.AddEvent(GCEvent{Kind: GCYoung, End: 100, UsedAfter: 10})
	l.AddEvent(GCEvent{Kind: GCYoung, End: 200, UsedAfter: 30})
	// Window after both events: constant at the last level.
	if got := l.FootprintAUC(500, 600); got != 30 {
		t.Fatalf("late-window AUC = %v, want 30", got)
	}
	if got := l.FootprintAUC(600, 600); got != 0 {
		t.Fatalf("empty window = %v, want 0", got)
	}
}
