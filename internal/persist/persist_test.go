package persist

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chopin/internal/gc"
	"chopin/internal/lbo"
	"chopin/internal/nominal"
	"chopin/internal/trace"
	"chopin/internal/workload"
)

func tempPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func sampleGrid() *lbo.Grid {
	g := &lbo.Grid{Benchmark: "fop"}
	g.Add(lbo.Measurement{
		Collector: "G1", HeapFactor: 2, HeapMB: 26, Completed: true,
		WallNS: 100, CPUNS: 150, STWWallNS: 10, GCCPUNS: 20,
		WallSamples: []float64{99, 101}, CPUSamples: []float64{149, 151},
	})
	g.Add(lbo.Measurement{Collector: "ZGC", HeapFactor: 1, Completed: false})
	return g
}

func TestGridRoundTrip(t *testing.T) {
	path := tempPath(t, "grid.json")
	if err := SaveGrid(path, sampleGrid()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGrid(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != "fop" || len(got.Cells) != 2 {
		t.Fatalf("grid = %+v", got)
	}
	if got.Cells[0].WallNS != 100 || len(got.Cells[0].WallSamples) != 2 {
		t.Fatalf("cell lost data: %+v", got.Cells[0])
	}
	// The reloaded grid must still compute overheads.
	ovs, err := got.Overheads()
	if err != nil {
		t.Fatal(err)
	}
	if len(ovs) != 2 || !ovs[0].Completed || ovs[1].Completed {
		t.Fatalf("overheads = %+v", ovs)
	}
}

func TestGeomeanRoundTrip(t *testing.T) {
	path := tempPath(t, "geo.json")
	pts := []lbo.GeomeanPoint{
		{Collector: "Serial", HeapFactor: 2, Wall: 1.5, CPU: 1.2, Benchmarks: 22, Complete: true},
	}
	if err := SaveGeomean(path, pts); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGeomean(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != pts[0] {
		t.Fatalf("points = %+v", got)
	}
}

func TestCharacterizationRoundTrip(t *testing.T) {
	path := tempPath(t, "char.json")
	c := &nominal.Characterization{
		Workload:  "fop",
		MinHeapMB: 12.5,
		Values:    map[string]float64{"ARA": 3340, "GMD": 12.5},
	}
	if err := SaveCharacterization(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCharacterization(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "fop" || got.Value("ARA") != 3340 {
		t.Fatalf("characterization = %+v", got)
	}
	if !math.IsNaN(got.Value("XYZ")) {
		t.Fatal("absent metric should be NaN after reload")
	}
}

func TestKindMismatch(t *testing.T) {
	path := tempPath(t, "grid.json")
	if err := SaveGrid(path, sampleGrid()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGeomean(path); err == nil {
		t.Fatal("loading a grid as geomean should fail")
	}
	if _, err := LoadCharacterization(path); err == nil {
		t.Fatal("loading a grid as characterization should fail")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(tempPath(t, "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
	bad := tempPath(t, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := Load(bad); err == nil {
		t.Fatal("malformed JSON should error")
	}
	wrongVersion := tempPath(t, "v9.json")
	os.WriteFile(wrongVersion, []byte(`{"version":9,"kind":"geomean","geomean":[]}`), 0o644)
	if _, err := Load(wrongVersion); err == nil {
		t.Fatal("future version should error")
	}
	unknownKind := tempPath(t, "kind.json")
	os.WriteFile(unknownKind, []byte(`{"version":1,"kind":"mystery"}`), 0o644)
	if _, err := Load(unknownKind); err == nil {
		t.Fatal("unknown kind should error")
	}
	empty := tempPath(t, "empty.json")
	os.WriteFile(empty, []byte(`{"version":1,"kind":"lbo-grid"}`), 0o644)
	if _, err := Load(empty); err == nil {
		t.Fatal("missing payload should error")
	}
}

func sampleInvocation() *InvocationRecord {
	return &InvocationRecord{
		Key:       "abc123",
		Workload:  "fop",
		Collector: "G1",
		HeapMB:    26,
		Seed:      42,
		Result: &workload.Result{
			Workload: "fop",
			Config:   workload.RunConfig{HeapMB: 26, Collector: gc.G1, Iterations: 2},
			Iterations: []workload.IterationResult{
				{WallNS: 2e9, CPUNS: 3e9, Allocated: 1e9},
				{WallNS: 1e9, CPUNS: 1.5e9, Allocated: 1e9, StartNS: 2e9, EndNS: 3e9},
			},
			Log:     &trace.Log{},
			GCCPUNS: 4e8,
		},
	}
}

func TestInvocationRoundTrip(t *testing.T) {
	path := tempPath(t, "inv.inv")
	rec := sampleInvocation()
	if err := SaveInvocation(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadInvocation(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != rec.Key || got.Workload != "fop" || got.OOM {
		t.Fatalf("record = %+v", got)
	}
	if got.Result == nil || len(got.Result.Iterations) != 2 {
		t.Fatalf("result lost: %+v", got.Result)
	}
	if got.Result.Last().WallNS != 1e9 || got.Result.GCCPUNS != 4e8 {
		t.Fatalf("result data lost: %+v", got.Result)
	}
	if got.Result.Config.Collector != gc.G1 || got.Result.Config.HeapMB != 26 {
		t.Fatalf("config lost: %+v", got.Result.Config)
	}
}

func TestInvocationOOMRoundTrip(t *testing.T) {
	path := tempPath(t, "oom.inv")
	rec := &InvocationRecord{Key: "k1", Workload: "h2", Collector: "ZGC", HeapMB: 8, OOM: true}
	if err := SaveInvocation(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadInvocation(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.OOM || got.Result != nil || got.HeapMB != 8 {
		t.Fatalf("record = %+v", got)
	}
}

func TestMinHeapRoundTrip(t *testing.T) {
	path := tempPath(t, "minheap.json")
	rec := &MinHeapRecord{Key: "mh1", Workload: "fop", MinHeapMB: 13.25}
	if err := SaveMinHeap(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMinHeap(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *rec {
		t.Fatalf("record = %+v, want %+v", got, rec)
	}
	// Cross-kind loads must fail.
	if _, err := LoadInvocation(path); err == nil {
		t.Fatal("loading a minheap as invocation should fail")
	}
}

// TestV1Migration feeds Load a hand-written v1 archive — the schema the seed
// release wrote — and expects it to come back migrated to the current
// version with its payload intact.
func TestV1Migration(t *testing.T) {
	path := tempPath(t, "v1.json")
	body := `{
  "version": 1,
  "kind": "lbo-grid",
  "grid": {
    "Benchmark": "fop",
    "Cells": [
      {"Collector": "G1", "HeapFactor": 2, "HeapMB": 26, "Completed": true,
       "WallNS": 100, "CPUNS": 150}
    ]
  }
}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != CurrentVersion() {
		t.Fatalf("migrated version = %d, want %d", a.Version, CurrentVersion())
	}
	if a.Grid == nil || a.Grid.Benchmark != "fop" || len(a.Grid.Cells) != 1 {
		t.Fatalf("payload lost in migration: %+v", a.Grid)
	}
}

// A v1 archive claiming an invocation-cache kind is corrupt, not old: those
// kinds did not exist before v2.
func TestV1InvocationRejected(t *testing.T) {
	path := tempPath(t, "v1-inv.json")
	os.WriteFile(path, []byte(`{"version":1,"kind":"invocation","invocation":{"key":"k","oom":true}}`), 0o644)
	if _, err := Load(path); err == nil {
		t.Fatal("v1 invocation archive should be rejected")
	}
	mh := tempPath(t, "v1-mh.json")
	os.WriteFile(mh, []byte(`{"version":1,"kind":"minheap","min_heap":{"key":"k","min_heap_mb":10}}`), 0o644)
	if _, err := Load(mh); err == nil {
		t.Fatal("v1 minheap archive should be rejected")
	}
}

func TestVersionBelowRangeRejected(t *testing.T) {
	path := tempPath(t, "v0.json")
	os.WriteFile(path, []byte(`{"version":0,"kind":"lbo-grid","grid":{"Benchmark":"fop"}}`), 0o644)
	if _, err := Load(path); err == nil {
		t.Fatal("version 0 should be rejected")
	}
}

// FuzzLoadArchive holds the JSON archive decoder to its contract on any
// bytes: it never panics, and it either rejects the input or returns an
// archive that saves and reloads to the same value. The opaque generic
// payload is compared as the JSON it encodes to, since saving re-indents it.
func FuzzLoadArchive(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := decodeArchive(b)
		if err != nil {
			return
		}
		saved, err := encodeArchive(a)
		if err != nil {
			t.Fatalf("decoded archive does not save: %v", err)
		}
		again, err := decodeArchive(saved)
		if err != nil {
			t.Fatalf("saved archive does not reload: %v\n%s", err, saved)
		}
		if a.Generic != nil && again.Generic != nil {
			x, errX := json.Marshal(a.Generic.Data)
			y, errY := json.Marshal(again.Generic.Data)
			if errX != nil || errY != nil || !bytes.Equal(x, y) {
				t.Fatalf("generic payload changed: %s -> %s", a.Generic.Data, again.Generic.Data)
			}
			again.Generic.Data = a.Generic.Data
		}
		if !reflect.DeepEqual(a, again) {
			t.Fatalf("archive changed on save and reload:\n in  %+v\n out %+v", a, again)
		}
	})
}
