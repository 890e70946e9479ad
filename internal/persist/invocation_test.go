package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"chopin/internal/gc"
	"chopin/internal/trace"
	"chopin/internal/workload"
)

// realRecord runs one small invocation and wraps its result as the engine
// would cache it, less what a record does not store: the Result's Workload
// and Config, which the job that reads the record fixes.
func realRecord(t testing.TB, d *workload.Descriptor, cfg workload.RunConfig) *InvocationRecord {
	t.Helper()
	res, err := workload.Run(d, cfg)
	if err != nil {
		t.Fatalf("%s/%v: %v", d.Name, cfg.Collector, err)
	}
	res.Workload, res.Config = "", workload.RunConfig{}
	return &InvocationRecord{Key: "0123456789abcdef", Result: res}
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
		"oom": {Key: "k", OOM: true},
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

// TestLoadInvocationReusesBuffer: a reader that hands LoadInvocation the
// buffer it got back reads the next record into the same storage, and a
// record decoded from that storage earlier keeps its values when the next
// record overwrites it. The larger record first, so the smaller one lands
// in the same backing array without growth.
func TestLoadInvocationReusesBuffer(t *testing.T) {
	big := realRecord(t, workload.Spring, workload.RunConfig{
		HeapMB: 2 * workload.Spring.MinHeapMB, Collector: gc.G1, Iterations: 1, Events: 100, Seed: 3,
		OpenLoop: true, OpenLoopHeadroom: 1.5, RecordLatency: true,
	})
	big.Key = "big-record-key"
	small := &InvocationRecord{Key: "k", OOM: true}
	bigPath, smallPath := tempPath(t, "big.inv"), tempPath(t, "small.inv")
	for path, rec := range map[string]*InvocationRecord{bigPath: big, smallPath: small} {
		if _, err := SaveInvocation(path, rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	gotBig, buf, err := LoadInvocation(bigPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	storage := &buf[:1][0]
	gotSmall, buf, err := LoadInvocation(smallPath, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &buf[:1][0] != storage {
		t.Fatal("the smaller record was not read into the buffer handed back")
	}
	if !reflect.DeepEqual(gotBig, big) || !reflect.DeepEqual(gotSmall, small) {
		t.Fatal("a record read through a reused buffer differs from the one saved")
	}
	if _, _, err := LoadInvocation(tempPath(t, "missing.inv"), buf); err == nil {
		t.Fatal("loading a missing file should error")
	}
}

// TestTraceFieldGuard fails when a field is added to the GC log types, to
// workload.Event or to the Result types: the invocation codec writes their
// fields one by one, so a new field would otherwise be dropped from every
// cached record without a sound. Result's Workload and Config are the two
// fields it does not write; the job that reads a record fixes them.
func TestTraceFieldGuard(t *testing.T) {
	for _, c := range []struct {
		typ    reflect.Type
		fields int
	}{
		{reflect.TypeOf(trace.GCEvent{}), 9},
		{reflect.TypeOf(trace.Pause{}), 2},
		{reflect.TypeOf(trace.Log{}), 3},
		{reflect.TypeOf(workload.Event{}), 2},
		{reflect.TypeOf(workload.Result{}), 7},
		{reflect.TypeOf(workload.IterationResult{}), 6},
	} {
		if n := c.typ.NumField(); n != c.fields {
			t.Errorf("%v has %d fields, the invocation codec writes %d: extend EncodeInvocation, "+
				"DecodeInvocation and the format version", c.typ, n, c.fields)
		}
	}
}

// frame builds a record around an arbitrary key and tail, bypassing the
// encoder's own checks.
func frame(key string, tail ...byte) []byte {
	b := append([]byte(nil), invMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(key)))
	return append(append(b, key...), tail...)
}

// words is the little-endian encoding of each word in turn.
func words(ws ...uint64) []byte {
	var b []byte
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return slices.Clip(b) // so that appends to it never share storage
}

// TestDecodeRejectsHostileInput feeds the decoder inputs a corrupted or
// hostile file could hold. Each must fail with ErrCorrupt, and none may
// allocate from a count the remaining bytes cannot back.
func TestDecodeRejectsHostileInput(t *testing.T) {
	const key, huge = "0123456789abcdef", math.MaxUint64
	// result frames a record whose result word is 1 and whose scalars are
	// zero, followed by tail: the iteration column onwards.
	result := func(tail ...byte) []byte { return frame(key, append(words(1, 0, 0), tail...)...) }
	iters := words(0)              // no iterations
	log := words(0, 0, 0, 0)       // no iterations, then StallNS, no events, no pauses
	oom := frame(key, words(0)...) // a valid OOM record
	cases := map[string][]byte{
		"empty":              nil,
		"short magic":        invMagic[:5],
		"format 2":           append([]byte("chopinv\x02"), oom[8:]...),
		"future version":     append([]byte("chopinv\x04"), oom[8:]...),
		"huge key":           append(invMagic[:], words(huge)...),
		"key overrun":        append(append(invMagic[:], words(17)...), key...),
		"no result word":     frame(key),
		"torn result word":   frame(key, 0, 0, 0),
		"result word 2":      frame(key, words(2)...),
		"oom trailing byte":  append(oom, 0),
		"torn scalars":       frame(key, append(words(1, 0), 1, 2, 3)...),
		"no iteration count": result(),
		"huge iterations":    result(words(huge)...),
		"iteration overrun":  result(words(1, 7)...),
		"torn iteration":     result(append(words(1, 1, 2, 3, 4, 5), 0, 0)...),
		"no log":             result(iters...),
		"torn stall":         result(append(iters, 1, 2, 3)...),
		"huge events":        result(words(0, 0, huge)...),
		"events overrun":     result(append(words(0, 0, 1), 9)...),
		"huge pauses":        result(words(0, 0, 0, huge)...),
		"no latency word":    result(log...),
		"torn presence":      result(append(log, 0, 0, 0)...),
		"bad presence":       result(append(log, words(2)...)...),
		"no latency count":   result(append(log, words(1)...)...),
		"huge latencies":     result(append(log, words(1, huge)...)...),
		"latency overrun":    result(append(log, words(1, 1, 7)...)...),
		"torn latency":       result(append(log, append(words(1, 2, 7, 8, 9), 0, 0)...)...),
		"trailing byte":      result(append(append(log, words(0)...), 0)...),
		"pre-binary JSON":    []byte(`{"version":2,"kind":"invocation","invocation":{"key":"k","oom":true}}`),
	}
	for name, b := range cases {
		if _, err := DecodeInvocation(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// The well-formed records the cases above corrupt do decode: an OOM,
	// an empty log without latencies, with an empty latency column, and
	// with two latencies, and one iteration with an empty log.
	controls := [][]byte{
		oom,
		result(append(log, words(0)...)...),
		result(append(log, words(1, 0)...)...),
		result(append(log, words(1, 2, 7, 8, 9, 10)...)...),
		result(words(1, 1, 2, 3, 4, 5, 6, 0, 0, 0, 0)...),
	}
	for _, b := range controls {
		if _, err := DecodeInvocation(b); err != nil {
			t.Fatalf("control record %v: %v", b, err)
		}
	}
}

// TestInvocationWithoutPayloadRejected covers the result-or-OOM rule: the
// encoder refuses a record with neither, with both, or with a result
// without its GC log, and the decoder rejects a hand-framed record whose
// result word is neither 0 (OOM) nor 1 (a result follows).
func TestInvocationWithoutPayloadRejected(t *testing.T) {
	res := &workload.Result{Log: &trace.Log{}}
	for name, rec := range map[string]*InvocationRecord{
		"neither": {Key: "k"},
		"both":    {Key: "k", OOM: true, Result: res},
		"no log":  {Key: "k", Result: &workload.Result{}},
	} {
		if _, err := SaveInvocation(tempPath(t, "bad.inv"), rec, nil); err == nil {
			t.Fatalf("saving a record with %s should error", name)
		}
	}
	path := tempPath(t, "empty-inv.inv")
	os.WriteFile(path, frame("k", words(2)...), 0o644)
	if _, _, err := LoadInvocation(path, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("invocation with neither result nor OOM: err = %v, want ErrCorrupt", err)
	}
}

// FuzzDecodeInvocation: decoding never panics, and either fails with
// ErrCorrupt or returns a record that re-encodes to exactly the input. The
// committed corpus (testdata/fuzz/FuzzDecodeInvocation) holds a real G1
// record, an OOM-only record, a record with per-event latencies in its
// latency column, a torn record, and three records of retired formats: a
// format-2 record (a JSON header, then the same columns), a format-1 record
// with its latencies in the JSON header, and a JSON invocation archive of
// the format before that.
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

// TestCorpusRecordsDecode: the corpus seeds that stand for records the
// current code writes decode, and the seeds of retired formats and the
// torn record do not. The fuzz target accepts either outcome, so a format
// change that silently turned a current seed into an ErrCorrupt one would
// otherwise go unnoticed.
func TestCorpusRecordsDecode(t *testing.T) {
	for name, valid := range map[string]bool{
		"g1-record":               true,
		"latency-record":          true,
		"oom-record":              true,
		"torn-record":             false,
		"v2-latency-record":       false,
		"v1-latency-record":       false,
		"pre-binary-json-archive": false,
	} {
		data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeInvocation", name))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		b, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := DecodeInvocation([]byte(b)); (err == nil) != valid {
			t.Errorf("%s: err = %v, want a valid record: %v", name, err, valid)
		}
	}
}
