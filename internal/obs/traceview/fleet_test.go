package traceview_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"chopin/internal/obs"
	"chopin/internal/obs/span"
	"chopin/internal/obs/traceview"
)

// fixtureFleet is a fixed two-replica fleet stream: replica-stamped engine
// telemetry (GC cycles, pauses, samples), balancer routes, blame-decomposed
// requests, one retry hop, and the per-replica metric windows. An ordinary
// single-process run ("solo") interleaves to prove BuildFleet skips it.
func fixtureFleet() []*span.FleetTrace {
	return span.BuildFleet(fixtureEvents())
}

// fixtureEvents is the stream fixtureFleet assembles.
func fixtureEvents() []obs.Event {
	ms := int64(1e6)
	return []obs.Event{
		// Replica 0 engine telemetry (1-based stamp = 1).
		{Kind: obs.KindGCPhaseStart, TNS: 2 * ms, Run: obs.Intern("cell-a"), Benchmark: obs.Intern("lusearch"), Collector: obs.Intern("G1"), Phase: obs.Intern("young"), Cycle: 1, Replica: 1},
		{Kind: obs.KindGCPause, TNS: 4 * ms, Run: obs.Intern("cell-a"), DurNS: float64(2 * ms), Cycle: 1, Replica: 1},
		{Kind: obs.KindGCPhaseEnd, TNS: 4 * ms, Run: obs.Intern("cell-a"), Phase: obs.Intern("young"), Cycle: 1, DurNS: float64(2 * ms), CPUNS: 1e6, Value: 2048, Replica: 1},
		{Kind: obs.KindSample, TNS: 5 * ms, Run: obs.Intern("cell-a"), HeapUsed: 32 << 20, LiveEst: 16 << 20, Replica: 1},
		// Replica 1 engine telemetry: same cycle ID as replica 0 — the
		// (run, replica) partition must keep them apart.
		{Kind: obs.KindGCPhaseStart, TNS: 11 * ms, Run: obs.Intern("cell-a"), Benchmark: obs.Intern("lusearch"), Collector: obs.Intern("G1"), Phase: obs.Intern("young"), Cycle: 1, Replica: 2},
		{Kind: obs.KindGCPause, TNS: 14 * ms, Run: obs.Intern("cell-a"), DurNS: float64(3 * ms), Cycle: 1, Replica: 2},
		{Kind: obs.KindGCPhaseEnd, TNS: 14 * ms, Run: obs.Intern("cell-a"), Phase: obs.Intern("young"), Cycle: 1, DurNS: float64(3 * ms), Value: 1024, Replica: 2},
		// The interleaved ordinary run: no fleet events, must not surface.
		{Kind: obs.KindGCPhaseStart, TNS: 100, Run: obs.Intern("solo"), Benchmark: obs.Intern("avrora"), Collector: obs.Intern("Serial"), Phase: obs.Intern("full"), Cycle: 1},
		{Kind: obs.KindGCPhaseEnd, TNS: 200, Run: obs.Intern("solo"), Phase: obs.Intern("full"), Cycle: 1, DurNS: 100},
		// Fleet layer: routes, one retry, blame-decomposed requests.
		{Kind: obs.KindFleetRoute, TNS: 0, Run: obs.Intern("cell-a"), Benchmark: obs.Intern("lusearch"), Value: 1, Cycle: 1, Replica: 1, Phase: obs.Intern("gc-aware"), InFlight: 1},
		{Kind: obs.KindFleetRoute, TNS: 1 * ms, Run: obs.Intern("cell-a"), Value: 2, Cycle: 1, Replica: 2, Phase: obs.Intern("gc-aware-avoid"), Aux: 1, InFlight: 1},
		{Kind: obs.KindFleetRequest, TNS: 8 * ms, Run: obs.Intern("cell-a"), Value: 1, Aux: 0, Cycle: 1, Replica: 1,
			DurNS: float64(8 * ms), QueueNS: 1 * ms, GCNS: 2 * ms, ServiceNS: 5 * ms, GCPauses: 1},
		{Kind: obs.KindFleetRetry, TNS: 13 * ms, Run: obs.Intern("cell-a"), Value: 2, Aux: 1, DurNS: float64(12 * ms), Replica: 2},
		{Kind: obs.KindFleetRoute, TNS: 13 * ms, Run: obs.Intern("cell-a"), Value: 2, Cycle: 2, Replica: 1, Phase: obs.Intern("gc-aware"), InFlight: 1},
		{Kind: obs.KindFleetRequest, TNS: 19 * ms, Run: obs.Intern("cell-a"), Value: 2, Aux: float64(1 * ms), Cycle: 2, Replica: 1,
			DurNS: float64(18 * ms), QueueNS: 1 * ms, GCNS: 0, ServiceNS: 5 * ms, RetryNS: 12 * ms},
		// Metric windows: both replicas on the shared 10ms grid.
		{Kind: obs.KindFleetWindow, TNS: 10 * ms, Run: obs.Intern("cell-a"), DurNS: float64(10 * ms), Replica: 1, Value: 1, InFlight: 0, Goodput: 100},
		{Kind: obs.KindFleetWindow, TNS: 10 * ms, Run: obs.Intern("cell-a"), DurNS: float64(10 * ms), Replica: 2, Value: 0, InFlight: 1},
		{Kind: obs.KindFleetWindow, TNS: 20 * ms, Run: obs.Intern("cell-a"), DurNS: float64(10 * ms), Replica: 1, Value: 1, Aux: 1, InFlight: 0, Goodput: 100, BurnRate: 50},
		{Kind: obs.KindFleetWindow, TNS: 20 * ms, Run: obs.Intern("cell-a"), DurNS: float64(10 * ms), Replica: 2, Value: 0, InFlight: 0},
	}
}

// TestBuildFleet validates the assembled structure: one trace (the solo run
// skipped), two replicas with separate span trees, the request/route/retry
// layers decoded, and the blame invariant surviving the event round-trip.
func TestBuildFleet(t *testing.T) {
	fts := fixtureFleet()
	if len(fts) != 1 {
		t.Fatalf("BuildFleet returned %d traces, want 1 (solo run must be skipped)", len(fts))
	}
	ft := fts[0]
	if ft.Run != "cell-a" || ft.Benchmark != "lusearch" || ft.Collector != "G1" {
		t.Fatalf("trace identity = %q/%q/%q", ft.Run, ft.Benchmark, ft.Collector)
	}
	if len(ft.Replicas) != 2 {
		t.Fatalf("replicas = %d, want 2", len(ft.Replicas))
	}
	for i, rt := range ft.Replicas {
		if rt.Index != i {
			t.Fatalf("replica %d has index %d", i, rt.Index)
		}
		if rt.Tree.Replica != i+1 {
			t.Fatalf("replica %d tree stamped %d", i, rt.Tree.Replica)
		}
		var stw int
		for _, s := range rt.Tree.Spans {
			if s.Track == span.TrackSTW {
				stw++
			}
		}
		if stw != 1 {
			t.Fatalf("replica %d has %d STW spans, want 1 (cycle IDs aliased?)", i, stw)
		}
		if len(rt.Windows) != 2 {
			t.Fatalf("replica %d has %d windows, want 2", i, len(rt.Windows))
		}
	}
	if len(ft.Requests) != 2 || len(ft.Routes) != 3 || len(ft.Retries) != 1 {
		t.Fatalf("layers = %d requests / %d routes / %d retries, want 2/3/1",
			len(ft.Requests), len(ft.Routes), len(ft.Retries))
	}
	for _, q := range ft.Requests {
		if q.QueueNS+q.GCNS+q.ServNS+q.RetryNS != q.E2ENS {
			t.Fatalf("request %d blame does not sum: %+v", q.ID, q)
		}
		if q.End-q.Start != q.E2ENS {
			t.Fatalf("request %d interval %d..%d vs E2E %d", q.ID, q.Start, q.End, q.E2ENS)
		}
	}
	if ft.EndNS != 20e6 {
		t.Fatalf("EndNS = %d, want 20ms", ft.EndNS)
	}

	// Forensics helpers over the same fixture.
	top := span.TopSlowest(ft.Requests, 1)
	if len(top) != 1 || top[0].ID != 2 {
		t.Fatalf("TopSlowest = %+v", top)
	}
	bt := span.SumBlame(ft.Requests)
	if bt.QueueNS+bt.GCNS+bt.ServNS+bt.RetryNS != bt.E2ENS || bt.Requests != 2 {
		t.Fatalf("SumBlame totals inconsistent: %+v", bt)
	}
	corr := span.CorrelateReplicas(ft)
	if len(corr) != 2 {
		t.Fatalf("CorrelateReplicas rows = %d", len(corr))
	}
	if corr[0].Requests != 2 || corr[1].Requests != 0 {
		t.Fatalf("request attribution: %+v", corr)
	}
	if corr[0].Routes != 2 || corr[1].Routes != 1 {
		t.Fatalf("route attribution: %+v", corr)
	}
	if corr[1].Retries != 1 {
		t.Fatalf("retry attribution: %+v", corr)
	}
	if corr[0].PauseNS != 2e6 || corr[1].PauseNS != 3e6 {
		t.Fatalf("pause attribution: %+v", corr)
	}
	st := span.SummarizeRetries(ft)
	if st.Total != 1 || st.Unique != 1 || st.MaxDepth != 1 || st.WindowNS != 10e6 || st.PeakWindowStart != 10e6 {
		t.Fatalf("SummarizeRetries = %+v", st)
	}
}

// TestFleetChromeGolden locks the fleet Chrome trace output byte-for-byte.
func TestFleetChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := traceview.WriteFleetChrome(&buf, fixtureFleet()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet.trace.json", buf.Bytes())
}

// TestFleetChromeSpec validates the fleet trace against the trace-event spec
// independent of golden bytes: valid JSON, required keys, one process per
// replica, and a requests/routes thread on each.
func TestFleetChromeSpec(t *testing.T) {
	var buf bytes.Buffer
	fts := fixtureFleet()
	if err := traceview.WriteFleetChrome(&buf, fts); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	procs := map[any]bool{}
	var reqSpans, routeInstants int
	for _, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing required key %q: %v", key, ev)
			}
		}
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			procs[ev["pid"]] = true
		}
		switch ev["cat"] {
		case "request":
			reqSpans++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("request span missing dur: %v", ev)
			}
		case "route":
			routeInstants++
		}
	}
	if len(procs) != len(fts[0].Replicas) {
		t.Errorf("processes = %d, replicas = %d", len(procs), len(fts[0].Replicas))
	}
	if reqSpans != len(fts[0].Requests) {
		t.Errorf("request spans = %d, want %d", reqSpans, len(fts[0].Requests))
	}
	if routeInstants != len(fts[0].Routes) {
		t.Errorf("route instants = %d, want %d", routeInstants, len(fts[0].Routes))
	}
}

// TestFleetTimelineGolden locks the terminal fleet timeline layout.
func TestFleetTimelineGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := traceview.WriteFleetTimeline(&buf, fixtureFleet(), 60); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet.timeline.txt", buf.Bytes())
}

// TestFleetRenderDeterministic re-renders both views and demands identical
// bytes.
func TestFleetRenderDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := traceview.WriteFleetChrome(&a, fixtureFleet()); err != nil {
		t.Fatal(err)
	}
	if err := traceview.WriteFleetChrome(&b, fixtureFleet()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two fleet Chrome renders differ")
	}
	a.Reset()
	b.Reset()
	if err := traceview.WriteFleetTimeline(&a, fixtureFleet(), 72); err != nil {
		t.Fatal(err)
	}
	if err := traceview.WriteFleetTimeline(&b, fixtureFleet(), 72); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two fleet timeline renders differ")
	}
}

// TestFleetRenderIndependentOfRunOrder concatenates three fleet runs' event
// batches in every order — the engine finishes cells, and so writes their
// telemetry, in whatever order its workers happen to — and demands the same
// Chrome and timeline bytes from each, with the traces in run-key order.
func TestFleetRenderIndependentOfRunOrder(t *testing.T) {
	runs := []string{"cell-b", "cell-c", "cell-a"}
	batches := make([][]obs.Event, len(runs))
	for i, run := range runs {
		for _, e := range fixtureEvents() {
			if e.Run == obs.Intern("cell-a") {
				e.Run = obs.Intern(run)
				e.TNS += int64(i) * 1e6 // distinct runs render distinct bytes
				batches[i] = append(batches[i], e)
			}
		}
	}
	render := func(order []int) (chrome, timeline []byte) {
		var events []obs.Event
		for _, i := range order {
			events = append(events, batches[i]...)
		}
		fts := span.BuildFleet(events)
		for i, want := range []string{"cell-a", "cell-b", "cell-c"} {
			if fts[i].Run != want {
				t.Fatalf("order %v: trace %d is %q, want %q", order, i, fts[i].Run, want)
			}
		}
		var c, tl bytes.Buffer
		if err := traceview.WriteFleetChrome(&c, fts); err != nil {
			t.Fatal(err)
		}
		if err := traceview.WriteFleetTimeline(&tl, fts, 72); err != nil {
			t.Fatal(err)
		}
		return c.Bytes(), tl.Bytes()
	}
	wantChrome, wantTimeline := render([]int{0, 1, 2})
	for _, order := range [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		chrome, timeline := render(order)
		if !bytes.Equal(chrome, wantChrome) {
			t.Errorf("batch order %v: fleet Chrome trace differs", order)
		}
		if !bytes.Equal(timeline, wantTimeline) {
			t.Errorf("batch order %v: fleet timeline differs", order)
		}
	}
}
