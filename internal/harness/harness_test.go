package harness

import (
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"chopin/internal/gc"
	"chopin/internal/workload"
)

func quickOpt() Options {
	return Options{
		Collectors:  []gc.Kind{gc.Serial, gc.G1},
		HeapFactors: []float64{1.5, 4},
		Invocations: 2,
		Iterations:  2,
		Events:      200,
		Seed:        11,
	}
}

func TestMinHeapAnchorsSweep(t *testing.T) {
	min, err := MinHeapMB(workload.Avrora, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if min < workload.Avrora.LiveMB || min > workload.Avrora.LiveMB*2+4 {
		t.Fatalf("avrora min heap = %vMB, want near live %vMB",
			min, workload.Avrora.LiveMB)
	}
}

func TestLBOGridShapeAndInvariants(t *testing.T) {
	grid, minMB, err := LBOGrid(workload.Lusearch, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if minMB <= 0 {
		t.Fatalf("min heap = %v", minMB)
	}
	if len(grid.Cells) != 4 { // 2 collectors x 2 factors
		t.Fatalf("grid has %d cells, want 4", len(grid.Cells))
	}
	ovs, err := grid.Overheads()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ovs {
		if !o.Completed {
			continue
		}
		if o.Wall < 1 || o.CPU < 1 {
			t.Fatalf("LBO below 1: %+v", o)
		}
	}
	// Time-space tradeoff: a tight heap must cost at least as much CPU
	// overhead as a roomy one for the same collector.
	byKey := map[string]float64{}
	for _, o := range ovs {
		if o.Completed {
			byKey[o.Collector+"@"+report(o.HeapFactor)] = o.CPU
		}
	}
	for _, c := range []string{"Serial", "G1"} {
		tight, roomy := byKey[c+"@1.5"], byKey[c+"@4"]
		if tight == 0 || roomy == 0 {
			t.Fatalf("%s missing cells: %v", c, byKey)
		}
		if tight < roomy*0.98 {
			t.Fatalf("%s: tight-heap CPU LBO %v below roomy %v", c, tight, roomy)
		}
	}
}

func report(f float64) string {
	if f == 1.5 {
		return "1.5"
	}
	return "4"
}

func TestZGCIncompleteAtTightHeap(t *testing.T) {
	opt := quickOpt()
	opt.Collectors = []gc.Kind{gc.ZGC}
	opt.HeapFactors = []float64{1, 4}
	grid, _, err := LBOGrid(workload.Fop, opt)
	if err != nil {
		t.Fatal(err)
	}
	var sawIncomplete, sawComplete bool
	for _, c := range grid.Cells {
		if c.HeapFactor == 1 && !c.Completed {
			sawIncomplete = true
		}
		if c.HeapFactor == 4 && c.Completed {
			sawComplete = true
		}
	}
	if !sawIncomplete {
		t.Fatal("ZGC should not complete at 1x the G1 minimum heap")
	}
	if !sawComplete {
		t.Fatal("ZGC should complete at 4x")
	}
}

func TestSuiteLBOGeomean(t *testing.T) {
	opt := quickOpt()
	ds := []*workload.Descriptor{workload.Avrora, workload.Fop}
	grids, pts, err := SuiteLBO(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 2 {
		t.Fatalf("grids = %d, want 2", len(grids))
	}
	if len(pts) != 4 { // 2 collectors x 2 factors
		t.Fatalf("geomean points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Complete && (p.Wall < 1 || p.CPU < 1) {
			t.Fatalf("geomean LBO below 1: %+v", p)
		}
	}
}

func TestLatencyExperiment(t *testing.T) {
	opt := quickOpt()
	opt.Collectors = []gc.Kind{gc.Serial, gc.Shenandoah}
	opt.Events = 400
	results, err := Latency(workload.Lusearch, []float64{2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for _, r := range results {
		if !r.Completed {
			t.Fatalf("%s did not complete", r.Collector)
		}
		if r.Simple.N() == 0 {
			t.Fatalf("%s recorded no events", r.Collector)
		}
		// Metered latency dominates simple latency at every percentile.
		for _, p := range []float64{50, 90, 99} {
			if r.MeteredFull.Percentile(p) < r.Simple.Percentile(p)-1e-6 {
				t.Fatalf("%s: metered p%v %v below simple %v", r.Collector, p,
					r.MeteredFull.Percentile(p), r.Simple.Percentile(p))
			}
		}
		if r.RunEnd <= r.RunStart {
			t.Fatalf("bad run window: %d..%d", r.RunStart, r.RunEnd)
		}
	}
}

func TestHeapTimeline(t *testing.T) {
	samples, err := HeapTimeline(workload.H2o, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no heap samples for a high-turnover workload")
	}
	for i, s := range samples {
		if s.UsedMB <= 0 {
			t.Fatalf("sample %d: used %v", i, s.UsedMB)
		}
		if i > 0 && s.TimeSec < samples[i-1].TimeSec {
			t.Fatalf("samples out of order at %d", i)
		}
	}
}

func TestOptionDefaultsApplied(t *testing.T) {
	o := Options{}.withDefaults(workload.Lusearch)
	if len(o.Collectors) != 5 {
		t.Fatalf("default collectors = %d, want 5", len(o.Collectors))
	}
	if len(o.HeapFactors) != len(DefaultHeapFactors) {
		t.Fatalf("default factors = %v", o.HeapFactors)
	}
	if o.Invocations != 3 || o.Iterations != 3 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.Events < 200 {
		t.Fatalf("events = %d", o.Events)
	}
	// Explicit values survive.
	o2 := Options{Invocations: 7, Events: 999}.withDefaults(workload.Lusearch)
	if o2.Invocations != 7 || o2.Events != 999 {
		t.Fatalf("explicit options clobbered: %+v", o2)
	}
}

func TestLatencyRecordsRawEvents(t *testing.T) {
	opt := quickOpt()
	opt.Collectors = []gc.Kind{gc.Serial}
	opt.Events = 300
	results, err := Latency(workload.Kafka, []float64{2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if len(r.Events) != r.Simple.N() {
		t.Fatalf("raw events %d != distribution size %d", len(r.Events), r.Simple.N())
	}
}

func TestLatencyOpenLoop(t *testing.T) {
	opt := quickOpt()
	opt.Collectors = []gc.Kind{gc.G1}
	opt.Events = 400
	results, err := LatencyOpenLoop(workload.Spring, []float64{3}, 2.0, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if !r.Completed || r.Simple.N() != 400 {
		t.Fatalf("open-loop run incomplete: %+v", r)
	}
	// Arrivals are scheduled, so the *sorted* start times must be (nearly)
	// uniformly spaced — unlike closed-loop, where starts cluster on
	// completions. (Events are recorded in completion order.)
	starts := make([]int64, 0, len(r.Events))
	for _, e := range r.Events {
		starts = append(starts, e.Start)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	interval := float64(starts[len(starts)-1]-starts[0]) / float64(len(starts)-1)
	uniform := 0
	for i := 1; i < len(starts); i++ {
		gap := float64(starts[i] - starts[i-1])
		if gap > 0.9*interval && gap < 1.1*interval {
			uniform++
		}
	}
	if uniform < len(starts)*9/10 {
		t.Fatalf("only %d of %d arrival gaps near the schedule interval %v",
			uniform, len(starts)-1, interval)
	}
}

// TestOnlyOOMLeavesCellIncomplete: a cell that runs out of memory is
// recorded as incomplete, but a cell that fails for any other reason fails
// the sweep, so a misconfigured cell never passes for an OOM one.
func TestOnlyOOMLeavesCellIncomplete(t *testing.T) {
	opt := Options{Collectors: []gc.Kind{gc.G1}, Invocations: 1, Iterations: 1, Events: 200}

	// A negative headroom is a degenerate open-loop schedule.
	res, err := LatencyOpenLoop(workload.Fop, []float64{2}, -1, opt)
	var cfgErr *workload.ErrOpenLoopConfig
	if !errors.As(err, &cfgErr) {
		t.Fatalf("open-loop latency at headroom -1 = %+v, %v; want *workload.ErrOpenLoopConfig", res, err)
	}

	// A negative heap factor is an invalid heap, rejected at the run.
	opt.HeapFactors = []float64{2, -1}
	if grid, _, err := LBOGrid(workload.Fop, opt); err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("LBO grid with a -1x cell = %+v, %v; want the invalid-heap error", grid, err)
	}
	// A NaN heap factor cannot be hashed into a job key.
	opt.HeapFactors = []float64{2, math.NaN()}
	if grid, _, err := LBOGrid(workload.Fop, opt); err == nil {
		t.Fatalf("LBO grid with a NaN cell = %+v, nil error", grid)
	}
}

// TestEmptySuiteRefused: a nil benchmark list selects the whole suite, but
// an empty one has no geometric mean and is an error, not a panic.
func TestEmptySuiteRefused(t *testing.T) {
	if _, _, err := SuiteLBO([]*workload.Descriptor{}, Options{}); err == nil {
		t.Fatal("SuiteLBO of no benchmarks succeeded")
	}
	if _, _, err := SubmitSuiteLBO([]*workload.Descriptor{}, Options{}).Wait(); err == nil {
		t.Fatal("SubmitSuiteLBO of no benchmarks succeeded")
	}
}
