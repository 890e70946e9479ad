package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"chopin/internal/gc"
	"chopin/internal/trace"
	"chopin/internal/workload"
)

// realRecord runs one small invocation and wraps its result as the engine
// would cache it.
func realRecord(t testing.TB, d *workload.Descriptor, cfg workload.RunConfig) *InvocationRecord {
	t.Helper()
	res, err := workload.Run(d, cfg)
	if err != nil {
		t.Fatalf("%s/%v: %v", d.Name, cfg.Collector, err)
	}
	return &InvocationRecord{
		Key: "0123456789abcdef", Workload: d.Name, Collector: cfg.Collector.String(),
		HeapMB: cfg.HeapMB, Seed: cfg.Seed, Result: res,
	}
}

// bitsEqual reports whether two values hold bit-identical floats wherever
// reflect.DeepEqual compares floats with ==, which equates 0 and -0.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
	case reflect.Map:
		for _, k := range a.MapKeys() {
			if !bitsEqual(a.MapIndex(k), b.MapIndex(k)) {
				return false
			}
		}
	}
	return true
}

// TestInvocationExactRoundTrip pins the codec on real results: every
// collector, closed loop and open loop with per-event latencies, must come
// back reflect.DeepEqual with bit-identical floats, and re-encode to the
// same bytes.
func TestInvocationExactRoundTrip(t *testing.T) {
	for _, kind := range gc.AllKinds {
		for _, tc := range []struct {
			name string
			d    *workload.Descriptor
			cfg  workload.RunConfig
		}{
			{"closed", workload.Fop, workload.RunConfig{
				HeapMB: 2 * workload.Fop.MinHeapMB, Collector: kind,
				Iterations: 2, Events: 200, Seed: 42,
			}},
			{"open", workload.Spring, workload.RunConfig{
				HeapMB: 2 * workload.Spring.MinHeapMB, Collector: kind,
				Iterations: 2, Events: 200, Seed: 42,
				OpenLoop: true, OpenLoopHeadroom: 1.5, RecordLatency: true,
			}},
		} {
			t.Run(kind.String()+"/"+tc.name, func(t *testing.T) {
				rec := realRecord(t, tc.d, tc.cfg)
				if len(rec.Result.Log.Events) == 0 || len(rec.Result.Log.Pauses) == 0 {
					t.Fatalf("run logged %d events, %d pauses: too small to exercise the codec",
						len(rec.Result.Log.Events), len(rec.Result.Log.Pauses))
				}
				if tc.cfg.RecordLatency && len(rec.Result.Events) == 0 {
					t.Fatal("open-loop run recorded no latencies")
				}
				b, err := EncodeInvocation(rec)
				if err != nil {
					t.Fatal(err)
				}
				got, err := DecodeInvocation(b)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, rec) {
					t.Fatal("decoded record differs from the original")
				}
				if !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(rec)) {
					t.Fatal("decoded record has a float that is not bit-identical")
				}
				again, err := EncodeInvocation(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, b) {
					t.Fatal("re-encoding the decoded record changed its bytes")
				}
			})
		}
	}
}

// TestAppendInvocationMatchesEncode: whatever buffer a writer hands
// AppendInvocation — one still holding a previous record's bytes, one too
// short to hold the record, one with room to spare — the bytes it appends
// are exactly EncodeInvocation's, for every collector, closed and open
// loop, and for an OOM-only record. Bytes already in dst are kept.
func TestAppendInvocationMatchesEncode(t *testing.T) {
	recs := map[string]*InvocationRecord{
		"oom": {Key: "k", Workload: "fop", Collector: "G1", HeapMB: 3, Seed: 1, OOM: true},
	}
	for _, kind := range gc.AllKinds {
		recs[kind.String()+"/closed"] = realRecord(t, workload.Fop, workload.RunConfig{
			HeapMB: 2 * workload.Fop.MinHeapMB, Collector: kind, Iterations: 1, Events: 100, Seed: 42,
		})
		recs[kind.String()+"/open"] = realRecord(t, workload.Spring, workload.RunConfig{
			HeapMB: 2 * workload.Spring.MinHeapMB, Collector: kind, Iterations: 1, Events: 100, Seed: 42,
			OpenLoop: true, OpenLoopHeadroom: 1.5, RecordLatency: true,
		})
	}
	var dirty []byte
	for name, rec := range recs {
		want, err := EncodeInvocation(rec)
		if err != nil {
			t.Fatal(err)
		}
		long := make([]byte, 0, 4*len(want))
		for _, dst := range map[string][]byte{
			"dirty": dirty[:0], "short": make([]byte, 0, 3), "long": long, "prefixed": []byte("xyz"),
		} {
			prefix := string(dst)
			got, err := AppendInvocation(dst, rec)
			if err != nil {
				t.Fatal(err)
			}
			if string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%s: AppendInvocation's bytes differ from EncodeInvocation's", name)
			}
		}
		if dirty, err = AppendInvocation(dirty[:0], rec); err != nil {
			t.Fatal(err)
		}
	}
	bad := &InvocationRecord{Key: "k"}
	if got, err := AppendInvocation([]byte("keep"), bad); err == nil || string(got) != "keep" {
		t.Fatalf("a rejected record: got %q, %v; want dst unchanged and an error", got, err)
	}
}

// TestTraceFieldGuard fails when a field is added to the GC log types: the
// invocation codec writes their fields one by one, so a new field would
// otherwise be dropped from every cached record without a sound.
func TestTraceFieldGuard(t *testing.T) {
	for _, c := range []struct {
		typ    reflect.Type
		fields int
	}{
		{reflect.TypeOf(trace.GCEvent{}), 9},
		{reflect.TypeOf(trace.Pause{}), 2},
		{reflect.TypeOf(trace.Log{}), 3},
	} {
		if n := c.typ.NumField(); n != c.fields {
			t.Errorf("%v has %d fields, the invocation codec writes %d: extend EncodeInvocation, "+
				"DecodeInvocation and the format version", c.typ, n, c.fields)
		}
	}
}

// frame builds a record around an arbitrary header and tail, bypassing the
// encoder's own checks.
func frame(hdr []byte, tail ...byte) []byte {
	b := append([]byte(nil), invMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(hdr)))
	return append(append(b, hdr...), tail...)
}

// TestDecodeRejectsHostileInput feeds the decoder inputs a corrupted or
// hostile file could hold. Each must fail with ErrCorrupt, and none may
// allocate from a count the remaining bytes cannot back.
func TestDecodeRejectsHostileInput(t *testing.T) {
	hdr, err := json.Marshal(header(realRecord(t, workload.Fop, workload.RunConfig{
		HeapMB: 2 * workload.Fop.MinHeapMB, Collector: gc.G1, Iterations: 1, Events: 50, Seed: 1,
	})))
	if err != nil {
		t.Fatal(err)
	}
	huge := binary.LittleEndian.AppendUint64(nil, math.MaxUint64)
	zero := make([]byte, 8)
	cases := map[string][]byte{
		"empty":           nil,
		"short magic":     invMagic[:5],
		"wrong version":   append(append([]byte("chopinv"), 2), frame(hdr)[8:]...),
		"huge header":     append(invMagic[:], huge...),
		"bad header":      frame([]byte(`{"key":`)),
		"spaced header":   frame([]byte(`{"key":"k", "workload":"fop","collector":"","heap_mb":0,"seed":0,"oom":true}`)),
		"no log":          frame(hdr),
		"torn stall":      frame(hdr, 1, 2, 3),
		"huge events":     frame(hdr, append(zero, huge...)...),
		"events overrun":  frame(hdr, append(zero, 1, 0, 0, 0, 0, 0, 0, 0, 9)...),
		"huge pauses":     frame(hdr, append(append(zero, zero...), huge...)...),
		"trailing byte":   frame(hdr, append(append(append(zero, zero...), zero...), 0)...),
		"neither":         frame([]byte(`{"key":"k","workload":"fop","collector":"","heap_mb":0,"seed":0}`)),
		"log in header":   frame([]byte(`{"key":"k","workload":"","collector":"","heap_mb":0,"seed":0,"result":{"Log":{}}}`), make([]byte, 24)...),
		"pre-binary JSON": []byte(`{"version":2,"kind":"invocation","invocation":{"key":"k","oom":true}}`),
	}
	for name, b := range cases {
		if _, err := DecodeInvocation(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// The well-formed empty log the cases above corrupt does decode.
	ok := frame(hdr, append(append(append([]byte(nil), zero...), zero...), zero...)...)
	if _, err := DecodeInvocation(ok); err != nil {
		t.Fatalf("control record: %v", err)
	}
}

// TestInvocationWithoutPayloadRejected covers both directions of the
// result-or-OOM rule: the encoder refuses such a record (and a result
// without its GC log) and the decoder rejects a hand-framed one.
func TestInvocationWithoutPayloadRejected(t *testing.T) {
	rec := &InvocationRecord{Key: "k", Workload: "fop"}
	if _, err := SaveInvocation(tempPath(t, "empty.inv"), rec, nil); err == nil {
		t.Fatal("saving an invocation with neither result nor OOM should error")
	}
	noLog := &InvocationRecord{Key: "k", Workload: "fop", Result: &workload.Result{Workload: "fop"}}
	if _, err := SaveInvocation(tempPath(t, "nolog.inv"), noLog, nil); err == nil {
		t.Fatal("saving a result without its GC log should error")
	}
	hdr, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := tempPath(t, "empty-inv.inv")
	os.WriteFile(path, frame(hdr), 0o644)
	if _, err := LoadInvocation(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("invocation with neither result nor OOM: err = %v, want ErrCorrupt", err)
	}
}

// FuzzDecodeInvocation: decoding never panics, and either fails with
// ErrCorrupt or returns a record that re-encodes to exactly the input. The
// committed corpus (testdata/fuzz/FuzzDecodeInvocation) holds a real G1
// record, an OOM-only record, a record with per-event latencies, a torn
// record and a JSON invocation archive of the format this one replaced.
func FuzzDecodeInvocation(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeInvocation(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		out, err := EncodeInvocation(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("re-encoding changed the bytes:\n in  %q\n out %q", b, out)
		}
	})
}
