package exper

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"chopin/internal/persist"
)

// CacheMode selects how the engine uses its persistent cache.
type CacheMode int

const (
	// ReadWrite is the normal resumable mode: completed jobs are skipped
	// via cache hits, new results are written back.
	ReadWrite CacheMode = iota
	// WriteOnly forces a cold re-run: records that existed before
	// OpenCache are ignored, so every job executes once, and the fresh
	// results overwrite them for the next warm run. Records this Cache
	// wrote itself are served, so a job the run repeats is not simulated
	// twice.
	WriteOnly
)

// writeDepth bounds the write-behind queue. Deep enough that a burst of
// completing workers never blocks on the writer; shallow enough that a dying
// process loses at most a bounded window of results (each of which simply
// re-runs next time).
const writeDepth = 128

// Cache is the content-addressed, invocation-level result store: one file
// per job key, sharded two-hex-characters deep so large plans do not pile
// thousands of files into one directory. Invocation results are binary
// persist records of fixed-width words, holding nothing their job's key
// fixes (dir/ab/abcdef….inv, see persist.EncodeInvocation); every other
// result is a small JSON generic record (dir/ab/abcdef….json): a fleet
// cell's report, or a min-heap measurement's bound as a bare number. Writes
// are atomic (write-then-rename in persist), so a killed run leaves only
// complete files behind — which is what makes plans resumable. Records of a
// retired format (JSON invocation archives, dedicated min-heap archives) are
// never served: those jobs re-run once and overwrite them.
//
// Invocation writes are write-behind: putInvocation parks the record in a
// pending map and hands the encoding to a single writer goroutine, so pool
// workers completing jobs concurrently never contend on disk I/O or on
// each other. Reads consult the pending map first, making the deferral
// invisible; write errors latch and surface at Flush (which Engine.Close
// calls), degrading a full disk to a cold next run rather than a failed
// sweep. Generic records are rare (one per workload per sweep shape, one per
// fleet cell) and stay synchronous; a failed write latches like an
// invocation write.
//
// Every hit says where it came from (source): a record that predates the
// Cache, or one the Cache already wrote or served. The second kind is a job
// the run repeats, and whether a repeat meets its first execution in flight
// (single-flight) or its record (here) depends only on timing, so the
// engine counts both the same way.
type Cache struct {
	dir  string
	mode CacheMode

	mu      sync.Mutex
	pending map[Key]*persist.InvocationRecord
	seen    map[Key]bool // keys whose record on disk this Cache wrote or served
	err     error        // first write error; latched, reported by Flush

	writes chan cacheWrite
	bufs   sync.Pool // *[]byte, the read buffers of getInvocation
}

// source says where a cache lookup found its record.
type source int

const (
	missed   source = iota // no valid record: the job runs
	stored                 // a record that predates this Cache: a cache hit
	repeated               // a record this Cache wrote or already served
)

// cacheWrite is one queue entry: a record to serialize, or — when ack is
// non-nil — a flush sentinel that reports the latched error once every
// preceding write has drained (the queue is FIFO).
type cacheWrite struct {
	key Key
	rec *persist.InvocationRecord
	ack chan error
}

// OpenCache opens (creating if necessary) a result cache rooted at dir and
// starts its write-behind goroutine.
func OpenCache(dir string, mode CacheMode) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("exper: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exper: opening cache: %w", err)
	}
	sweepTemps(dir)
	c := &Cache{
		dir:     dir,
		mode:    mode,
		pending: map[Key]*persist.InvocationRecord{},
		seen:    map[Key]bool{},
		writes:  make(chan cacheWrite, writeDepth),
	}
	c.bufs.New = func() any { return new([]byte) }
	go c.writer()
	return c, nil
}

// sweepTemps removes write-then-rename debris a killed run leaves behind. A
// *.tmp file is never a valid archive — the rename that would have published
// it did not happen — so deleting it on open is always safe, and keeps the
// orphans from accumulating under long-lived cache directories. Best effort:
// a file another process races us for is someone else's problem.
func sweepTemps(dir string) {
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if strings.HasSuffix(d.Name(), ".tmp") {
			os.Remove(path)
		}
		return nil
	})
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path is where the JSON record of a generic or min-heap job lives.
func (c *Cache) path(k Key) string {
	return filepath.Join(c.dir, k.Shard(), string(k)+".json")
}

// invPath is where the binary record of an invocation job lives.
func (c *Cache) invPath(k Key) string {
	return filepath.Join(c.dir, k.Shard(), string(k)+".inv")
}

// writer is the write-behind goroutine: it drains the queue, serializing
// records one at a time and retiring them from the pending map, and answers
// flush sentinels with the latched error. Every record is encoded into one
// buffer the writer keeps, so a sweep's records cost no allocation beyond
// the largest one's.
func (c *Cache) writer() {
	var buf []byte
	for w := range c.writes {
		if w.ack != nil {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			w.ack <- err
			continue
		}
		var err error
		buf, err = persist.SaveInvocation(c.invPath(w.key), w.rec, buf)
		// Marked as written before it leaves the pending map, so a reader
		// always finds the record in one of the two.
		c.latch(w.key, c.saved(w.key, err))
		c.mu.Lock()
		if cur, ok := c.pending[w.key]; ok && cur == w.rec {
			delete(c.pending, w.key)
		}
		c.mu.Unlock()
	}
}

// saved notes a finished write of k's record and returns its error: after a
// success the record on disk is this Cache's own, which a write-only cache
// serves.
func (c *Cache) saved(k Key, err error) error {
	if err == nil {
		c.mu.Lock()
		c.seen[k] = true
		c.mu.Unlock()
	}
	return err
}

// lookup returns k's record still queued for writing, if any, and whether
// k's record on disk must be ignored: in write-only mode, every record this
// Cache did not write itself predates the run.
func (c *Cache) lookup(k Key) (pending *persist.InvocationRecord, stale bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending[k], c.mode == WriteOnly && !c.seen[k]
}

// served notes that k's record on disk was served and says whether it had
// been written or served before.
func (c *Cache) served(k Key) source {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen[k] {
		return repeated
	}
	c.seen[k] = true
	return stored
}

// latch keeps the first failed write's error for the next Flush.
func (c *Cache) latch(k Key, err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = fmt.Errorf("exper: caching %s: %w", k, err)
	}
	c.mu.Unlock()
}

// Flush blocks until every queued invocation write has reached disk and
// returns the first write error latched since the previous Flush cleared —
// the point where a sweep learns its results did not all persist. The cache
// remains usable after Flush; Engine.Close flushes the engine's cache.
func (c *Cache) Flush() error {
	ack := make(chan error, 1)
	c.writes <- cacheWrite{ack: ack}
	err := <-ack
	c.mu.Lock()
	c.err = nil
	c.mu.Unlock()
	return err
}

// Close flushes every queued write and stops the write-behind goroutine,
// returning the first latched write error. The cache must not be used after
// Close. Engine.Close does NOT close its cache — the caller owns it and may
// share it across engines — so callers that open caches dynamically (one per
// sweep, one per test) should Close them, or the abandoned write-behind
// goroutines accumulate for the life of the process. CLI.Close closes the
// cache CLI.Build opened.
func (c *Cache) Close() error {
	err := c.Flush()
	close(c.writes)
	return err
}

// getInvocation loads the job's cached record, if present and valid, and
// says where it came from. Records still queued behind the write-behind
// path are served from memory (and shared, so never modified), so callers
// never observe the deferral. A record read from disk gets the Result's
// Workload and Config back from the job. Unreadable or stale records are
// misses, never failures: the job simply re-runs and overwrites them.
// Files are read into pooled buffers, which the decoded record does not
// reference.
func (c *Cache) getInvocation(j Job) (*persist.InvocationRecord, source) {
	rec, stale := c.lookup(j.key)
	if rec != nil {
		return rec, repeated
	}
	if stale {
		return nil, missed
	}
	buf := c.bufs.Get().(*[]byte)
	var err error
	rec, *buf, err = persist.LoadInvocation(c.invPath(j.key), *buf)
	c.bufs.Put(buf)
	if err != nil || rec.Key != string(j.key) {
		return nil, missed
	}
	if rec.Result != nil {
		rec.Result.Workload = j.Desc.Name
		rec.Result.Config = normalize(j.Cfg)
	}
	return rec, c.served(j.key)
}

// putInvocation queues the record for write-behind persistence. It returns
// immediately (backpressure only when the queue is writeDepth deep); any
// previously latched write error is returned as a courtesy, but the
// authoritative error check is Flush.
func (c *Cache) putInvocation(k Key, rec *persist.InvocationRecord) error {
	c.mu.Lock()
	c.pending[k] = rec
	err := c.err
	c.mu.Unlock()
	c.writes <- cacheWrite{key: k, rec: rec}
	return err
}

// getGeneric loads a cached generic record, if present and valid, and says
// where it came from. Generic and min-heap jobs are coarse (one per fleet
// sweep cell or benchmark, not one per event), so their records stay
// synchronous — no write-behind.
func (c *Cache) getGeneric(k Key) (*persist.GenericRecord, source) {
	if _, stale := c.lookup(k); stale {
		return nil, missed
	}
	rec, err := persist.LoadGeneric(c.path(k))
	if err != nil || rec.Key != string(k) {
		return nil, missed
	}
	return rec, c.served(k)
}

// putGeneric writes a generic record; a failure latches like an invocation
// write's, so Flush (and Engine.Close) report it.
func (c *Cache) putGeneric(k Key, rec *persist.GenericRecord) {
	c.latch(k, c.saved(k, persist.SaveGeneric(c.path(k), rec)))
}
