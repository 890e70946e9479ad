package exper

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chopin/internal/obs"
	"chopin/internal/persist"
	"chopin/internal/workload"
)

func testRecord(k Key) *persist.InvocationRecord {
	return &persist.InvocationRecord{Key: string(k), OOM: true} // OOM-only keeps the fixture tiny
}

// keyed is the small test job (testBench under smallCfg) under key k, so a
// record planted at any key is served as the engine serves that job: a
// hit read from disk gets the job's Workload and Config back.
func keyed(t *testing.T, k Key) Job {
	return Job{Desc: testBench(t), Cfg: smallCfg(), key: k}
}

// TestOpenCacheSweepsOrphanedTemps kills-and-restarts in miniature: a run
// that dies between write and rename leaves *.tmp debris that no future
// rename will ever publish. Opening the cache must clear it while leaving
// completed archives untouched.
func TestOpenCacheSweepsOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	c := OpenTestCache(t, dir, ReadWrite)
	k := Key("abcdef0123456789")
	if err := c.putInvocation(k, testRecord(k)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Plant debris at both levels a torn write can leave it.
	orphans := []string{
		c.invPath(k) + ".tmp",
		filepath.Join(dir, "ff", "fedcba.json.tmp"),
		filepath.Join(dir, "stray.tmp"),
	}
	for _, p := range orphans {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(`{"version":2,"ki`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c2 := OpenTestCache(t, dir, ReadWrite)
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived reopen", p)
		}
	}
	rec, src := c2.getInvocation(keyed(t, k))
	if src != stored || rec.Key != string(k) {
		t.Fatalf("completed archive lost by the sweep: source=%v rec=%+v", src, rec)
	}
}

// logRecord runs one small real invocation, so the record carries a GC log
// with events and pauses.
func logRecord(t *testing.T, k Key) *persist.InvocationRecord {
	t.Helper()
	res, err := workload.Run(testBench(t), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Log.Events) == 0 || len(res.Log.Pauses) == 0 {
		t.Fatalf("run logged %d events, %d pauses", len(res.Log.Events), len(res.Log.Pauses))
	}
	return &persist.InvocationRecord{Key: string(k), Result: res}
}

// tearPoints are the prefix lengths at which a torn write can cut a binary
// invocation record, one inside or at the end of each section of the frame
// (see persist.EncodeInvocation). Points past the record's end are dropped:
// an OOM-only record ends with its result word.
func tearPoints(whole []byte) map[string]int {
	le := binary.LittleEndian
	keyEnd := 16 + int(le.Uint64(whole[8:16]))
	pts := map[string]int{
		"empty":           0,
		"mid-magic":       4,
		"magic":           8,
		"mid-key-len":     12,
		"key-length":      16,
		"mid-key":         16 + (keyEnd-16)/2,
		"key":             keyEnd,
		"mid-result-word": keyEnd + 4,
		"last-byte":       len(whole) - 1,
	}
	if res := keyEnd + 8; res < len(whole) {
		itersAt := res + 16
		logStart := itersAt + 8 + 48*int(le.Uint64(whole[itersAt:]))
		pts["result-word"] = res
		pts["mid-scalars"] = res + 8
		pts["scalars"] = itersAt
		pts["mid-iteration-count"] = itersAt + 4
		pts["iteration-count"] = itersAt + 8
		pts["mid-iteration"] = itersAt + 8 + 24
		pts["iterations"] = logStart
		events := int(le.Uint64(whole[logStart+8:]))
		pausesAt := logStart + 16 + 72*events
		pts["stall"] = logStart + 8
		pts["mid-event-count"] = logStart + 12
		pts["event-count"] = logStart + 16
		pts["mid-event"] = logStart + 16 + 36
		pts["events"] = pausesAt
		pts["mid-pause-count"] = pausesAt + 4
		pts["pause-count"] = pausesAt + 8
		latAt := pausesAt + 8 + 16*int(le.Uint64(whole[pausesAt:]))
		pts["pauses"] = latAt
		pts["mid-latency-presence"] = latAt + 4
	}
	for name, n := range pts {
		if n >= len(whole) {
			delete(pts, name)
		}
	}
	return pts
}

// TestTruncatedArchiveIsMiss writes valid records — an OOM-only one and one
// carrying a real GC log — tears each at every section boundary a partial
// write could stop at, and checks each torn state registers as a cache miss
// the job layer can heal by re-running — never an error, never a bogus hit.
func TestTruncatedArchiveIsMiss(t *testing.T) {
	dir := t.TempDir()
	c := OpenTestCache(t, dir, ReadWrite)
	oomKey, logKey := Key("0011223344556677"), Key("7766554433221100")
	for _, rec := range []*persist.InvocationRecord{testRecord(oomKey), logRecord(t, logKey)} {
		k := Key(rec.Key)
		if err := c.putInvocation(k, rec); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		whole, err := os.ReadFile(c.invPath(k))
		if err != nil {
			t.Fatal(err)
		}
		got, src := c.getInvocation(keyed(t, k))
		if src == missed || !reflect.DeepEqual(got, rec) {
			t.Fatalf("%s: intact record should hit with the stored content", k)
		}

		pts := tearPoints(whole)
		if rec.Result != nil && len(pts) != 25 {
			t.Fatalf("%s: %d tear points, want all 25: %v", k, len(pts), pts)
		}
		for name, n := range pts {
			if err := os.WriteFile(c.invPath(k), whole[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, src := c.getInvocation(keyed(t, k)); src != missed {
				t.Fatalf("%s: record torn at %s (%d of %d bytes) served as a hit", k, name, n, len(whole))
			}
		}

		// The miss is recoverable: a re-run's put repairs the entry in place.
		if err := c.putInvocation(k, rec); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, src := c.getInvocation(keyed(t, k)); src == missed {
			t.Fatalf("%s: rewritten record should hit again", k)
		}
	}
}

// TestPreBinaryJSONArchiveIsMiss: a cache written before invocation records
// went binary holds one indented JSON archive per invocation at
// <hh>/<key>.json. Such an archive — where it lies, or copied to the record
// path — must read as a miss, never as a hit, an error or a panic, and the
// re-run's binary record must replace it.
func TestPreBinaryJSONArchiveIsMiss(t *testing.T) {
	oldRecordHeals(t, func(c *Cache, job Job, rec *persist.InvocationRecord) {
		old, err := json.MarshalIndent(struct {
			Version    int                       `json:"version"`
			Kind       string                    `json:"kind"`
			Invocation *persist.InvocationRecord `json:"invocation"`
		}{2, "invocation", rec}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		plant(t, c.path(job.key), old)
		plant(t, c.invPath(job.key), old)
	})
}

// TestV2RecordIsMiss: a cache written before the JSON header left the
// record holds format-2 invocation records. Such a record must read as a
// miss, and the re-run's current-format record must overwrite it.
func TestV2RecordIsMiss(t *testing.T) {
	oldRecordHeals(t, func(c *Cache, job Job, rec *persist.InvocationRecord) {
		plant(t, c.invPath(job.key), v2Frame(t, job, rec))
	})
}

// TestV1RecordIsMiss: a cache written before the latencies left the JSON
// header holds format-1 invocation records. Such a record must read as a
// miss, and the re-run's current-format record must overwrite it.
func TestV1RecordIsMiss(t *testing.T) {
	oldRecordHeals(t, func(c *Cache, job Job, rec *persist.InvocationRecord) {
		// For a record without latencies (fop records none), format 1
		// differs from format 2 only in its version byte and in having no
		// latency presence word.
		v2 := v2Frame(t, job, rec)
		v1 := v2[:len(v2)-8]
		v1[7] = 1
		plant(t, c.invPath(job.key), v1)
	})
}

// v2Frame is rec as format 2 wrote it for job: the magic with version byte
// 2, a length-prefixed compact-JSON header of the record's identity and the
// Result's scalars, then the same GC log and latency columns as format 3.
func v2Frame(t *testing.T, job Job, rec *persist.InvocationRecord) []byte {
	t.Helper()
	res := *rec.Result
	res.Log, res.Events = nil, nil
	hdr, err := json.Marshal(struct {
		Key       string           `json:"key"`
		Workload  string           `json:"workload"`
		Collector string           `json:"collector"`
		HeapMB    float64          `json:"heap_mb"`
		Seed      uint64           `json:"seed"`
		Result    *workload.Result `json:"result,omitempty"`
	}{rec.Key, job.Desc.Name, job.Cfg.Collector.String(), job.Cfg.HeapMB, job.Cfg.Seed, &res})
	if err != nil {
		t.Fatal(err)
	}
	v3, err := persist.EncodeInvocation(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Format 3's columns follow its magic, key, result word, scalars and
	// iterations.
	logAt := 8 + 8 + len(rec.Key) + 8 + 16 + 8 + 48*len(rec.Result.Iterations)
	b := binary.LittleEndian.AppendUint64([]byte("chopinv\x02"), uint64(len(hdr)))
	return append(append(b, hdr...), v3[logAt:]...)
}

// plant writes data at path, creating its shard directory.
func plant(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// oldRecordHeals has old plant a record of a retired format for a job's
// key in a fresh cache, then checks that the job reads it as a miss, never
// as a hit, an error or a panic; that the re-run writes exactly the job's
// current-format record; and that a warm engine on a reopened cache serves
// that record as a cache hit.
func oldRecordHeals(t *testing.T, old func(c *Cache, job Job, rec *persist.InvocationRecord)) {
	t.Helper()
	d := testBench(t)
	job, err := NewJob(d, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	k := job.Key()
	rec := logRecord(t, k)
	want, err := persist.EncodeInvocation(rec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	old(c, job, rec)
	if _, src := c.getInvocation(job); src != missed {
		t.Fatal("record of a retired format served as a hit")
	}

	cold := New(Options{Cache: c})
	if _, err := cold.Run(d, smallCfg()); err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.Executed != 1 || s.CacheHits != 0 {
		t.Fatalf("re-run stats = %+v, want one execution and no hit", s)
	}
	if got, err := os.ReadFile(c.invPath(k)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-run left %d bytes (err %v), want its %d-byte current-format record", len(got), err, len(want))
	}

	reopened, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	warm := New(Options{Cache: reopened})
	defer warm.Close()
	if _, err := warm.Run(d, smallCfg()); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Executed != 0 || s.CacheHits != 1 {
		t.Fatalf("warm stats = %+v, want a pure cache hit", s)
	}
}

// TestWriterBufferSharedAcrossRecords: the write-behind goroutine encodes
// every record into one buffer it keeps. A large record, then a small one
// into the grown buffer, then a large one again must each land on disk as
// exactly its own bytes, and reload from a fresh cache.
func TestWriterBufferSharedAcrossRecords(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*persist.InvocationRecord{
		logRecord(t, Key("00aa00aa00aa00aa")),
		testRecord(Key("11bb11bb11bb11bb")),
		logRecord(t, Key("22cc22cc22cc22cc")),
	}
	for _, rec := range recs {
		if err := c.putInvocation(Key(rec.Key), rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	fresh, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, rec := range recs {
		want, err := persist.EncodeInvocation(rec)
		if err != nil {
			t.Fatal(err)
		}
		k := Key(rec.Key)
		if got, err := os.ReadFile(c.invPath(k)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: file holds %d bytes (err %v), want its own %d-byte encoding", k, len(got), err, len(want))
		}
		if got, src := fresh.getInvocation(keyed(t, k)); src != stored || !reflect.DeepEqual(got, rec) {
			t.Fatalf("%s: reload missed or differs from the record written", k)
		}
	}
}

// TestWrongKeyArchiveIsMiss guards the content-address check: an archive
// whose embedded key disagrees with its filename (say, a hand-copied file)
// must not be served for the key it squats on.
func TestWrongKeyArchiveIsMiss(t *testing.T) {
	dir := t.TempDir()
	c := OpenTestCache(t, dir, ReadWrite)
	k := Key("8899aabbccddeeff")
	other := Key("1122334455667788")
	if _, err := persist.SaveInvocation(c.invPath(k), testRecord(other), nil); err != nil {
		t.Fatal(err)
	}
	if _, src := c.getInvocation(keyed(t, k)); src != missed {
		t.Fatal("archive with mismatched key served as a hit")
	}
}

// TestGenericWriteErrorLatches: a generic job (a fleet sweep cell) whose
// record cannot be written still hands back its payload, but the failure
// latches like an invocation write's and Engine.Close reports it — the
// cell does not silently re-run on the next pass.
func TestGenericWriteErrorLatches(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k, err := genericKey("probe", 1)
	if err != nil {
		t.Fatal(err)
	}
	// A file where the key's shard directory belongs fails the write.
	if err := os.WriteFile(filepath.Join(dir, k.Shard()), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 1, Cache: c})
	tk, err := e.SubmitGeneric("probe", 1, func(obs.Recorder) ([]byte, error) { return []byte("1"), nil })
	if err != nil {
		t.Fatal(err)
	}
	data, err := tk.Wait()
	if err != nil || string(data) != "1" {
		t.Fatalf("generic job = %q, %v; want the payload despite the failed write", data, err)
	}
	err = e.Close()
	if want := "exper: caching " + string(k) + ": "; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Close = %v, want an error starting %q", err, want)
	}
	if _, src := c.getGeneric(k); src != missed {
		t.Fatal("record served although its write failed")
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("second Flush = %v, want the latch cleared", err)
	}
}

// TestResultIdenticalFreshPendingOrStored: one job, run with telemetry on,
// yields bit-identical Results — Workload and Config included — whether
// served fresh, from the cache's pending map by a second engine, or from
// disk by a third engine on a reopened cache. Telemetry on makes the run
// record into a pooled buffer, which a fresh Result must not keep in its
// Config.Recorder: a stored one cannot carry it.
func TestResultIdenticalFreshPendingOrStored(t *testing.T) {
	d := testBench(t)
	dir := t.TempDir()
	c, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the writer on an unread flush sentinel, so the record stays in
	// the pending map until the second engine has read it.
	hold := make(chan error)
	c.writes <- cacheWrite{ack: hold}
	run := func(c *Cache) (*workload.Result, Stats) {
		t.Helper()
		e := New(Options{Workers: 1, Cache: c, Recorder: &obs.Buffer{}})
		res, err := e.Run(d, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		return res, e.Stats()
	}
	fresh, s := run(c)
	if s.Executed != 1 {
		t.Fatalf("fresh stats = %+v, want one execution", s)
	}
	pending, s := run(c)
	if s.Executed != 0 || s.Deduped != 1 {
		t.Fatalf("pending stats = %+v, want the queued record served", s)
	}
	<-hold
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	stored, s := run(reopened)
	if s.Executed != 0 || s.CacheHits != 1 {
		t.Fatalf("stored stats = %+v, want a cache hit", s)
	}
	if fresh.Workload != d.Name || fresh.Config.HeapMB != smallCfg().HeapMB {
		t.Fatalf("fresh result names %q at %v MB", fresh.Workload, fresh.Config.HeapMB)
	}
	for name, res := range map[string]*workload.Result{"pending": pending, "stored": stored} {
		if !reflect.DeepEqual(res, fresh) || !bitsEqual(reflect.ValueOf(res), reflect.ValueOf(fresh)) {
			t.Errorf("%s result differs from the fresh one (config recorder %T vs %T)",
				name, res.Config.Recorder, fresh.Config.Recorder)
		}
	}
}

// bitsEqual reports whether two values hold bit-identical floats wherever
// reflect.DeepEqual compares floats with ==, which equates 0 and -0 (the
// persist tests' helper of the same name).
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
