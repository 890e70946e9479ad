package exper

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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
	return &persist.InvocationRecord{
		Key: string(k), Workload: "lusearch", Collector: "G1",
		HeapMB: 100, OOM: true, // OOM-only record keeps the fixture tiny
	}
}

// TestOpenCacheSweepsOrphanedTemps kills-and-restarts in miniature: a run
// that dies between write and rename leaves *.tmp debris that no future
// rename will ever publish. Opening the cache must clear it while leaving
// completed archives untouched.
func TestOpenCacheSweepsOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
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

	c2, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived reopen", p)
		}
	}
	rec, src := c2.getInvocation(k)
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
	return &persist.InvocationRecord{Key: string(k), Workload: "fop", Collector: "G1", HeapMB: 100, Seed: 1, Result: res}
}

// tearPoints are the prefix lengths at which a torn write can cut a binary
// invocation record, one inside or at the end of each section of the frame
// (see persist.EncodeInvocation). Points past the record's end are dropped:
// an OOM-only record ends with its header.
func tearPoints(whole []byte) map[string]int {
	hdrEnd := 16 + int(binary.LittleEndian.Uint64(whole[8:16]))
	pts := map[string]int{
		"empty":         0,
		"mid-magic":     4,
		"magic":         8,
		"mid-hdr-len":   12,
		"header-length": 16,
		"mid-header":    16 + (hdrEnd-16)/2,
		"header":        hdrEnd,
		"last-byte":     len(whole) - 1,
	}
	if hdrEnd < len(whole) {
		logStart := hdrEnd
		events := int(binary.LittleEndian.Uint64(whole[logStart+8:]))
		pausesAt := logStart + 16 + 72*events
		pts["stall"] = logStart + 8
		pts["mid-event-count"] = logStart + 12
		pts["event-count"] = logStart + 16
		pts["mid-event"] = logStart + 16 + 36
		pts["events"] = pausesAt
		pts["mid-pause-count"] = pausesAt + 4
		pts["pause-count"] = pausesAt + 8
		latAt := pausesAt + 8 + 16*int(binary.LittleEndian.Uint64(whole[pausesAt:]))
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
	c, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
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
		got, src := c.getInvocation(k)
		if src == missed || !reflect.DeepEqual(got, rec) {
			t.Fatalf("%s: intact record should hit with the stored content", k)
		}

		pts := tearPoints(whole)
		if rec.Result != nil && len(pts) != 17 {
			t.Fatalf("%s: %d tear points, want all 17: %v", k, len(pts), pts)
		}
		for name, n := range pts {
			if err := os.WriteFile(c.invPath(k), whole[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, src := c.getInvocation(k); src != missed {
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
		if _, src := c.getInvocation(k); src == missed {
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
	oldRecordHeals(t, func(c *Cache, k Key, rec *persist.InvocationRecord) {
		old, err := json.MarshalIndent(struct {
			Version    int                       `json:"version"`
			Kind       string                    `json:"kind"`
			Invocation *persist.InvocationRecord `json:"invocation"`
		}{2, "invocation", rec}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		plant(t, c.path(k), old)
		plant(t, c.invPath(k), old)
	})
}

// TestV1RecordIsMiss: a cache written before the latencies left the JSON
// header holds format-1 invocation records. Such a record must read as a
// miss, and the re-run's current-format record must overwrite it.
func TestV1RecordIsMiss(t *testing.T) {
	oldRecordHeals(t, func(c *Cache, k Key, rec *persist.InvocationRecord) {
		v2, err := persist.EncodeInvocation(rec)
		if err != nil {
			t.Fatal(err)
		}
		// For a record without latencies (fop records none), format 1
		// differs only in its version byte and in having no latency
		// presence word.
		v1 := append([]byte(nil), v2[:len(v2)-8]...)
		v1[7] = 1
		plant(t, c.invPath(k), v1)
	})
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
func oldRecordHeals(t *testing.T, old func(c *Cache, k Key, rec *persist.InvocationRecord)) {
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
	old(c, k, rec)
	if _, src := c.getInvocation(k); src != missed {
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
		if got, src := fresh.getInvocation(k); src != stored || !reflect.DeepEqual(got, rec) {
			t.Fatalf("%s: reload missed or differs from the record written", k)
		}
	}
}

// TestWrongKeyArchiveIsMiss guards the content-address check: an archive
// whose embedded key disagrees with its filename (say, a hand-copied file)
// must not be served for the key it squats on.
func TestWrongKeyArchiveIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	k := Key("8899aabbccddeeff")
	other := Key("1122334455667788")
	if _, err := persist.SaveInvocation(c.invPath(k), testRecord(other), nil); err != nil {
		t.Fatal(err)
	}
	if _, src := c.getInvocation(k); src != missed {
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
	k, err := GenericKey("probe", 1)
	if err != nil {
		t.Fatal(err)
	}
	// A file where the key's shard directory belongs fails the write.
	if err := os.WriteFile(filepath.Join(dir, k.Shard()), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 1, Cache: c})
	data, err := e.RunGeneric("probe", 1, func(obs.Recorder) ([]byte, error) { return []byte("1"), nil })
	if err != nil || string(data) != "1" {
		t.Fatalf("RunGeneric = %q, %v; want the payload despite the failed write", data, err)
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
