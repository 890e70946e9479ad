package span_test

import (
	"math"
	"sync"
	"testing"

	"chopin/internal/gc"
	"chopin/internal/obs"
	"chopin/internal/obs/span"
	"chopin/internal/workload"
)

type sliceRecorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *sliceRecorder) Enabled() bool { return true }
func (r *sliceRecorder) Record(e obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// TestBuildSynthetic locks the folding rules on a hand-written stream: a
// concurrent cycle with a stall and two pauses, a degeneration, and an
// orphaned phase-end.
func TestBuildSynthetic(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KindGCPhaseStart, TNS: 100, Run: obs.Intern("r"), Phase: obs.Intern("concurrent"), Cycle: 1},
		{Kind: obs.KindGCPause, TNS: 120, Run: obs.Intern("r"), DurNS: 20, Cycle: 1},
		{Kind: obs.KindPacerStall, TNS: 150, Run: obs.Intern("r"), DurNS: 30, Cause: 1},
		{Kind: obs.KindDegenerateGC, TNS: 200, Run: obs.Intern("r"), Cause: 1},
		{Kind: obs.KindGCPhaseEnd, TNS: 200, Run: obs.Intern("r"), Phase: obs.Intern("concurrent"), Cycle: 1, CPUNS: 55},
		{Kind: obs.KindGCPhaseStart, TNS: 200, Run: obs.Intern("r"), Phase: obs.Intern("degenerate"), Cycle: 2, Cause: 1},
		{Kind: obs.KindGCPause, TNS: 260, Run: obs.Intern("r"), DurNS: 60, Cycle: 2},
		{Kind: obs.KindGCPhaseEnd, TNS: 260, Run: obs.Intern("r"), Phase: obs.Intern("degenerate"), Cycle: 2, DurNS: 60, Value: 4096},
		// Orphaned end: its start was lost to truncation upstream.
		{Kind: obs.KindGCPhaseEnd, TNS: 400, Run: obs.Intern("r"), Phase: obs.Intern("young"), Cycle: 3, DurNS: 40},
		{Kind: obs.KindQuiescent, TNS: 500, Run: obs.Intern("r"), DurNS: 500, Value: 12},
	}
	trees := span.Build(events)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tr := trees[0]
	if tr.Run != "r" || tr.EndNS != 500 {
		t.Fatalf("tree header wrong: run=%q end=%d", tr.Run, tr.EndNS)
	}

	byName := map[string][]span.Span{}
	for _, s := range tr.Spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	conc := byName["concurrent"]
	if len(conc) != 1 || conc[0].Start != 100 || conc[0].End != 200 || conc[0].CPUNS != 55 {
		t.Fatalf("concurrent span wrong: %+v", conc)
	}
	if conc[0].Open {
		t.Fatal("closed cycle marked Open")
	}
	deg := byName["degenerate"]
	if len(deg) != 1 || deg[0].Cause != 1 || deg[0].Value != 4096 {
		t.Fatalf("degenerate span wrong: %+v", deg)
	}
	if y := byName["young"]; len(y) != 1 || y[0].Start != 360 || y[0].End != 400 {
		t.Fatalf("orphaned phase-end not reconstructed from duration: %+v", y)
	}

	pauses := byName["pause"]
	if len(pauses) != 2 {
		t.Fatalf("got %d pause spans, want 2", len(pauses))
	}
	if pauses[0].Parent != conc[0].ID || pauses[0].Start != 100 || pauses[0].End != 120 {
		t.Fatalf("first pause not nested in concurrent cycle: %+v", pauses[0])
	}
	if pauses[1].Parent != deg[0].ID {
		t.Fatalf("second pause not nested in degenerate collection: %+v", pauses[1])
	}

	stalls := byName["stall"]
	if len(stalls) != 1 || stalls[0].Parent != conc[0].ID || stalls[0].Start != 150 || stalls[0].End != 180 {
		t.Fatalf("stall span wrong: %+v", stalls)
	}
	if len(tr.Marks) != 1 || tr.Marks[0].Name != "degenerate-gc" || tr.Marks[0].Cause != 1 {
		t.Fatalf("marks wrong: %+v", tr.Marks)
	}
	if act := byName["active"]; len(act) != 1 || act[0].Start != 0 || act[0].End != 500 {
		t.Fatalf("sched span wrong: %+v", act)
	}
}

// TestBuildClipsTruncatedStream checks a phase-start with no end becomes an
// Open span clipped to the run horizon instead of a zero-length artifact.
func TestBuildClipsTruncatedStream(t *testing.T) {
	trees := span.Build([]obs.Event{
		{Kind: obs.KindGCPhaseStart, TNS: 100, Run: obs.Intern("r"), Phase: obs.Intern("concurrent"), Cycle: 1},
		{Kind: obs.KindGCPause, TNS: 300, Run: obs.Intern("r"), DurNS: 10, Cycle: 1},
	})
	s := trees[0].Spans[0]
	if !s.Open || s.Start != 100 || s.End != 300 {
		t.Fatalf("truncated cycle span = %+v, want Open [100,300]", s)
	}
}

// TestBuildGroupsInterleavedRuns checks events from concurrently executing
// jobs (one shared sink) separate cleanly by Run.
func TestBuildGroupsInterleavedRuns(t *testing.T) {
	trees := span.Build([]obs.Event{
		{Kind: obs.KindGCPhaseStart, TNS: 10, Run: obs.Intern("a"), Phase: obs.Intern("young"), Cycle: 1},
		{Kind: obs.KindGCPhaseStart, TNS: 10, Run: obs.Intern("b"), Phase: obs.Intern("full"), Cycle: 1},
		{Kind: obs.KindGCPhaseEnd, TNS: 20, Run: obs.Intern("a"), Phase: obs.Intern("young"), Cycle: 1},
		{Kind: obs.KindGCPhaseEnd, TNS: 30, Run: obs.Intern("b"), Phase: obs.Intern("full"), Cycle: 1},
	})
	if len(trees) != 2 || trees[0].Run != "a" || trees[1].Run != "b" {
		t.Fatalf("runs not separated: %+v", trees)
	}
	for _, tr := range trees {
		if len(tr.Spans) != 1 {
			t.Fatalf("run %s has %d spans, want 1", tr.Run, len(tr.Spans))
		}
	}
}

// checkWellFormed asserts the structural invariants every tree from a
// complete stream must satisfy.
func checkWellFormed(t *testing.T, tr *span.Tree) {
	t.Helper()
	ids := map[int64]span.Span{}
	for _, s := range tr.Spans {
		if _, dup := ids[s.ID]; dup {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		ids[s.ID] = s
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts: %+v", s.ID, s)
		}
		if s.Open {
			t.Fatalf("complete stream produced an Open span: %+v", s)
		}
		if s.End > tr.EndNS {
			t.Fatalf("span %d extends past the run horizon %d: %+v", s.ID, tr.EndNS, s)
		}
	}

	cycleByID := map[int64]span.Span{}
	for _, s := range tr.Spans {
		if s.Track == span.TrackGC {
			cycleByID[s.Cycle] = s
		}
	}

	var stw []span.Span
	for _, s := range tr.Spans {
		switch s.Track {
		case span.TrackSTW:
			// Every pause nests in exactly one collection span.
			if s.Parent == 0 {
				t.Fatalf("pause span %d has no owning cycle: %+v", s.ID, s)
			}
			p, ok := ids[s.Parent]
			if !ok {
				t.Fatalf("pause span %d parents missing span %d", s.ID, s.Parent)
			}
			if p.Track != span.TrackGC {
				t.Fatalf("pause span %d parents non-cycle span %+v", s.ID, p)
			}
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("pause span [%d,%d] escapes its cycle [%d,%d]",
					s.Start, s.End, p.Start, p.End)
			}
			stw = append(stw, s)
		case span.TrackMutator:
			// Every stall blames a cycle that was live when it began.
			cy, ok := cycleByID[s.Cause]
			if !ok {
				t.Fatalf("stall span %d blames unknown cycle %d", s.ID, s.Cause)
			}
			if s.Start < cy.Start || s.Start > cy.End {
				t.Fatalf("stall starting at %d blames cycle [%d,%d] that was not live",
					s.Start, cy.Start, cy.End)
			}
		}
	}
	// The world pauses once at a time: STW spans never overlap. Spans are
	// sorted by Start, so adjacent comparison suffices.
	for i := 1; i < len(stw); i++ {
		if stw[i].Start < stw[i-1].End {
			t.Fatalf("STW spans overlap: [%d,%d] then [%d,%d]",
				stw[i-1].Start, stw[i-1].End, stw[i].Start, stw[i].End)
		}
	}
}

// TestSpanTreeInvariantsAcrossSeeds is the property test: span trees built
// from 100+ seeded runs across collectors and heap pressures are always
// well-formed — pauses nest in exactly one cycle, STW spans never overlap,
// stalls blame a cycle live at stall start.
func TestSpanTreeInvariantsAcrossSeeds(t *testing.T) {
	d, err := workload.ByName("lusearch")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []gc.Kind{gc.Serial, gc.Parallel, gc.G1, gc.Shenandoah, gc.ZGC, gc.GenZGC}
	factors := []float64{1.8, 2.5, 4}
	runs := 0
	for _, kind := range kinds {
		for _, f := range factors {
			for seed := uint64(1); seed <= 6; seed++ {
				runs++
				rec := &sliceRecorder{}
				_, err := workload.Run(d, workload.RunConfig{
					HeapMB:    d.LiveMB * f,
					Collector: kind,
					Events:    250,
					Seed:      seed*977 + uint64(runs),
					Recorder:  rec,
				})
				if err != nil {
					// OOM at a tight heap is a legitimate outcome; its
					// partial stream must still fold cleanly.
					if _, ok := err.(*workload.ErrOutOfMemory); !ok {
						t.Fatalf("%v/%.1fx seed %d: %v", kind, f, seed, err)
					}
				}
				trees := span.Build(rec.events)
				if len(trees) > 1 {
					t.Fatalf("%v/%.1fx seed %d: %d trees from one run", kind, f, seed, len(trees))
				}
				for _, tr := range trees {
					checkWellFormed(t, tr)
				}
			}
		}
	}
	if runs < 100 {
		t.Fatalf("property test covered %d runs, want >= 100", runs)
	}
}

// TestSpanTotalsMatchLog is the acceptance lock: summing exported span
// durations reproduces the run's trace.Log totals — STW track to
// TotalPauseNS, mutator track to StallNS, cycle-span CPU to TotalGCCPUNS.
// This is the same Build path cmd/obsreport -trace-out exports through.
func TestSpanTotalsMatchLog(t *testing.T) {
	d, err := workload.ByName("lusearch")
	if err != nil {
		t.Fatal(err)
	}
	rec := &sliceRecorder{}
	res, err := workload.Run(d, workload.RunConfig{
		HeapMB:     d.LiveMB * 2.2,
		Collector:  gc.Shenandoah,
		Iterations: 2,
		Events:     400,
		Seed:       7,
		Recorder:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	trees := span.Build(rec.events)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tr := trees[0]
	if got, want := tr.SumTrack(span.TrackSTW), res.Log.TotalPauseNS(); !closeTo(got, want) {
		t.Errorf("STW span sum = %v, log TotalPauseNS = %v", got, want)
	}
	if got, want := tr.SumTrack(span.TrackMutator), res.Log.StallNS; !closeTo(got, want) {
		t.Errorf("stall span sum = %v, log StallNS = %v", got, want)
	}
	var cpu float64
	for _, s := range tr.Spans {
		if s.Track == span.TrackGC {
			cpu += s.CPUNS
		}
	}
	if got, want := cpu, res.Log.TotalGCCPUNS(); !closeTo(got, want) {
		t.Errorf("cycle span CPU sum = %v, log TotalGCCPUNS = %v", got, want)
	}
	if len(tr.Spans) < 4 {
		t.Fatalf("suspiciously few spans (%d): %+v", len(tr.Spans), tr.Spans)
	}
}

func closeTo(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}
