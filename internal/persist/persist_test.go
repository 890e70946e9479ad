package persist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chopin/internal/gc"
	"chopin/internal/trace"
	"chopin/internal/workload"
)

func tempPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

// TestKindMismatch: an archive of the retired "minheap" kind is not a
// generic record, and a generic archive is not an invocation record.
func TestKindMismatch(t *testing.T) {
	path := tempPath(t, "minheap.json")
	os.WriteFile(path, []byte(`{"version":2,"kind":"minheap","min_heap":{"key":"k","workload":"fop","min_heap_mb":13}}`), 0o644)
	if _, err := LoadGeneric(path); err == nil {
		t.Fatal("loading a minheap archive as generic should fail")
	}
	gen := tempPath(t, "generic.json")
	if err := SaveGeneric(gen, &GenericRecord{Key: "k", Kind: "cell", Data: json.RawMessage(`{"x":1}`)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadInvocation(gen, nil); err == nil {
		t.Fatal("loading a generic as invocation should fail")
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
		Key: "abc123",
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

// TestInvocationRoundTrip: a record keeps its key and measurements, and
// stores neither the Result's Workload nor its Config, which the job that
// reads the record fixes.
func TestInvocationRoundTrip(t *testing.T) {
	path := tempPath(t, "inv.inv")
	rec := sampleInvocation()
	if _, err := SaveInvocation(path, rec, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadInvocation(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != rec.Key || got.OOM {
		t.Fatalf("record = %+v", got)
	}
	if got.Result == nil || len(got.Result.Iterations) != 2 {
		t.Fatalf("result lost: %+v", got.Result)
	}
	if got.Result.Last() != rec.Result.Last() || got.Result.GCCPUNS != 4e8 {
		t.Fatalf("result data lost: %+v", got.Result)
	}
	if got.Result.Workload != "" || !reflect.DeepEqual(got.Result.Config, workload.RunConfig{}) {
		t.Fatalf("record stored what the job fixes: workload %q, config %+v", got.Result.Workload, got.Result.Config)
	}
}

func TestInvocationOOMRoundTrip(t *testing.T) {
	path := tempPath(t, "oom.inv")
	rec := &InvocationRecord{Key: "k1", OOM: true}
	if _, err := SaveInvocation(path, rec, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadInvocation(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("record = %+v", got)
	}
}

// TestMinHeapRoundTrip: a min-heap bound stored as a generic record's JSON
// number payload reloads to the same float64.
func TestMinHeapRoundTrip(t *testing.T) {
	path := tempPath(t, "minheap.json")
	bound := 50.625 / 3
	data, err := json.Marshal(bound)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveGeneric(path, &GenericRecord{Key: "mh1", Kind: "minheap", Data: data}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGeneric(path)
	if err != nil {
		t.Fatal(err)
	}
	var mb float64
	if err := json.Unmarshal(got.Data, &mb); err != nil || mb != bound {
		t.Fatalf("bound = %v (%v), want %v", mb, err, bound)
	}
	if got.Key != "mh1" || got.Kind != "minheap" {
		t.Fatalf("record = %+v", got)
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
