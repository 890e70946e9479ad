package exper_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"chopin/internal/exper"
	"chopin/internal/gc"
	"chopin/internal/obs"
	"chopin/internal/obs/span"
	"chopin/internal/obs/traceview"
	"chopin/internal/workload"
)

// TestTelemetryBuildsOneTracePerExecutedJob checks the one route from an
// engine run to per-job timelines: the Recorder's stream, folded by
// span.Build, holds one tree per executed job, named by its key, and none for
// a cache hit, which ran nothing.
func TestTelemetryBuildsOneTracePerExecutedJob(t *testing.T) {
	cache, err := exper.OpenCache(t.TempDir(), exper.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	var rec obs.Buffer
	eng := exper.New(exper.Options{Workers: 2, Cache: cache, Recorder: &rec})

	d, err := workload.ByName("lusearch")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []workload.RunConfig{
		{HeapMB: d.LiveMB * 2.2, Collector: gc.Shenandoah, Events: 200, Seed: 3},
		{HeapMB: d.LiveMB * 3, Collector: gc.G1, Events: 150, Seed: 1},
		{HeapMB: d.LiveMB * 2.2, Collector: gc.Shenandoah, Events: 200, Seed: 3},
	}
	var keys []exper.Key
	for _, cfg := range cfgs {
		tk, err := eng.Submit(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tk.Key())
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Executed != 2 || s.Deduped != 1 {
		t.Fatalf("stats = %+v, want 2 executed and 1 repeat served from the cache", s)
	}

	trees := span.Build(rec.Events())
	if len(trees) != 2 {
		t.Fatalf("span.Build returned %d trees, want 2 (one per executed job)", len(trees))
	}
	for i, tr := range trees {
		if tr.Run != string(keys[i]) {
			t.Errorf("tree %d: Run %q, want job key %q", i, tr.Run, keys[i])
		}
		if len(tr.Spans) == 0 {
			t.Errorf("tree %d (%s): no spans", i, tr.Run)
		}
	}

	var out bytes.Buffer
	if err := traceview.WriteChromeTrace(&out, trees); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	procs := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" {
			procs[ev.Pid] = true
		}
	}
	if len(procs) != 2 {
		t.Fatalf("Chrome trace names %d processes, want 2", len(procs))
	}
}
