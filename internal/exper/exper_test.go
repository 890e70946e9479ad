package exper

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"chopin/internal/cpuarch"
	"chopin/internal/gc"
	"chopin/internal/obs"
	"chopin/internal/workload"
)

func testBench(t *testing.T) *workload.Descriptor {
	t.Helper()
	d, err := workload.ByName("fop")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func smallCfg() workload.RunConfig {
	return workload.RunConfig{
		HeapMB:     100,
		Collector:  gc.G1,
		Iterations: 1,
		Events:     200,
		Seed:       1,
	}
}

func TestJobKeyStable(t *testing.T) {
	d := testBench(t)
	a, err := NewJob(d, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewJob(d, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == "" || a.Key() != b.Key() {
		t.Fatalf("keys differ for identical jobs: %q vs %q", a.Key(), b.Key())
	}
	if len(a.Key()) != 64 {
		t.Fatalf("key %q is not hex sha256", a.Key())
	}
}

func TestJobKeyDistinguishesConfigs(t *testing.T) {
	d := testBench(t)
	base, _ := NewJob(d, smallCfg())
	seen := map[Key]string{base.Key(): "base"}
	variants := map[string]workload.RunConfig{}

	c := smallCfg()
	c.HeapMB = 120
	variants["heap"] = c
	c = smallCfg()
	c.Seed = 2
	variants["seed"] = c
	c = smallCfg()
	c.Collector = gc.Serial
	variants["collector"] = c
	c = smallCfg()
	c.Events = 300
	variants["events"] = c
	c = smallCfg()
	c.Iterations = 2
	variants["iterations"] = c
	c = smallCfg()
	c.RecordLatency = true
	variants["latency"] = c

	for name, cfg := range variants {
		j, err := NewJob(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[j.Key()]; dup {
			t.Fatalf("variant %q collides with %q", name, prev)
		}
		seen[j.Key()] = name
	}
}

// Size-scaled descriptors share a name; their jobs must not share a key.
func TestJobKeyDistinguishesScaledDescriptors(t *testing.T) {
	d := testBench(t)
	big := d.Scaled(workload.SizeLarge)
	if big.Name != d.Name {
		t.Fatalf("scaling changed the name: %q", big.Name)
	}
	a, _ := NewJob(d, smallCfg())
	b, _ := NewJob(big, smallCfg())
	if a.Key() == b.Key() {
		t.Fatal("scaled descriptor shares the default descriptor's job key")
	}
}

// Configs that execute identically must hash identically: the zero machine
// is the reference Zen4, iterations are clamped to at least 1.
func TestJobKeyNormalization(t *testing.T) {
	d := testBench(t)
	implicit := smallCfg()
	implicit.Iterations = 0
	explicit := smallCfg()
	explicit.Iterations = 1
	explicit.Machine = cpuarch.Zen4

	a, _ := NewJob(d, implicit)
	b, _ := NewJob(d, explicit)
	if a.Key() != b.Key() {
		t.Fatal("equivalent spellings of the same config hash differently")
	}
}

func TestMinHeapKeyCoversParams(t *testing.T) {
	d := testBench(t)
	p := MinHeapParams{Events: 200, Iterations: 2, Invocations: 2, Seed: 7}
	a, err := minHeapKey(d, p)
	if err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.Seed = 8
	b, err := minHeapKey(d, p2)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("min-heap key ignores the seed")
	}
	j, _ := NewJob(d, smallCfg())
	if a == j.Key() {
		t.Fatal("min-heap key collides with an invocation key")
	}
}

func TestPoolRunsEverything(t *testing.T) {
	p := newPool(4)
	var n int64
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		p.submit(func() {
			atomic.AddInt64(&n, 1)
			wg.Done()
		})
	}
	wg.Wait()
	p.close()
	if n != 200 {
		t.Fatalf("ran %d of 200 tasks", n)
	}
}

// TestEngineDedupsConcurrentIdenticalJobs: concurrent identical jobs run
// once; every other submission is Deduped, whether it met the job in flight
// or its record in the cache.
func TestEngineDedupsConcurrentIdenticalJobs(t *testing.T) {
	e := New(Options{Workers: 4, Cache: OpenTestCache(t, t.TempDir(), ReadWrite)})
	defer e.Close()
	d := testBench(t)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Run(d, smallCfg())
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Executed != 1 {
		t.Fatalf("identical concurrent jobs executed %d times", s.Executed)
	}
	if s.Deduped != n-1 || s.CacheHits != 0 || s.MemoHits != 0 {
		t.Fatalf("stats = %+v, want %d deduped", s, n-1)
	}
}

// TestNewJobRefusesRecorder: telemetry enters jobs only through
// Options.Recorder, so a RunConfig carrying its own recorder is refused
// rather than silently recording a subset of the engine's jobs.
func TestNewJobRefusesRecorder(t *testing.T) {
	d := testBench(t)
	cfg := smallCfg()
	cfg.Recorder = &obs.Buffer{}
	if _, err := NewJob(d, cfg); err == nil || !strings.Contains(err.Error(), "Options.Recorder") {
		t.Fatalf("NewJob with a recorder: err = %v, want one naming Options.Recorder", err)
	}
	e := New(Options{Workers: 1})
	defer e.Close()
	if _, err := e.Submit(d, cfg); err == nil {
		t.Fatal("Submit accepted a config with a recorder")
	}
	if s := e.Stats(); s.Executed != 0 {
		t.Fatalf("refused job executed: %+v", s)
	}
}

func TestEngineCachesResults(t *testing.T) {
	dir := t.TempDir()
	d := testBench(t)

	cache := OpenTestCache(t, dir, ReadWrite)
	e1 := New(Options{Workers: 2, Cache: cache})
	want, err := e1.Run(d, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if s := e1.Stats(); s.Executed != 1 || s.CacheHits != 0 {
		t.Fatalf("cold stats = %+v", s)
	}

	// A fresh engine over the same cache must not touch the simulator.
	cache2 := OpenTestCache(t, dir, ReadWrite)
	e2 := New(Options{Workers: 2, Cache: cache2})
	defer e2.Close()
	got, err := e2.Run(d, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if s := e2.Stats(); s.Executed != 0 || s.CacheHits != 1 {
		t.Fatalf("warm stats = %+v, want 0 executed / 1 cache hit", s)
	}
	if got.Last().WallNS != want.Last().WallNS || got.GCCPUNS != want.GCCPUNS {
		t.Fatalf("cached result differs: %v vs %v", got.Last(), want.Last())
	}
}

func TestEngineCachesOOM(t *testing.T) {
	dir := t.TempDir()
	d := testBench(t)
	cfg := smallCfg()
	cfg.HeapMB = 1 // far below fop's minimum

	cache := OpenTestCache(t, dir, ReadWrite)
	e1 := New(Options{Workers: 1, Cache: cache})
	_, err := e1.Run(d, cfg)
	var oom *workload.ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("err = %v, want OOM", err)
	}
	e1.Close()
	if s := e1.Stats(); s.OOMs != 1 || s.Executed != 1 {
		t.Fatalf("stats = %+v", s)
	}

	cache2 := OpenTestCache(t, dir, ReadWrite)
	e2 := New(Options{Workers: 1, Cache: cache2})
	defer e2.Close()
	_, err = e2.Run(d, cfg)
	if !errors.As(err, &oom) {
		t.Fatalf("cached err = %v, want OOM", err)
	}
	if oom.Workload != d.Name || oom.HeapMB != 1 {
		t.Fatalf("reconstructed OOM = %+v", oom)
	}
	if s := e2.Stats(); s.Executed != 0 || s.CacheHits != 1 {
		t.Fatalf("warm stats = %+v, want OOM served from cache", s)
	}
}

// WriteOnly mode is the -cold flag: every job re-executes, fresh results
// still land in the cache for the next warm run.
func TestWriteOnlyModeForcesColdRun(t *testing.T) {
	dir := t.TempDir()
	d := testBench(t)

	cache := OpenTestCache(t, dir, ReadWrite)
	e1 := New(Options{Workers: 1, Cache: cache})
	if _, err := e1.Run(d, smallCfg()); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	cold := OpenTestCache(t, dir, WriteOnly)
	e2 := New(Options{Workers: 1, Cache: cold})
	if _, err := e2.Run(d, smallCfg()); err != nil {
		t.Fatal(err)
	}
	e2.Close()
	if s := e2.Stats(); s.Executed != 1 || s.CacheHits != 0 {
		t.Fatalf("cold stats = %+v, want forced execution", s)
	}

	// The overwritten record still serves the next warm engine.
	warm := OpenTestCache(t, dir, ReadWrite)
	e3 := New(Options{Workers: 1, Cache: warm})
	defer e3.Close()
	if _, err := e3.Run(d, smallCfg()); err != nil {
		t.Fatal(err)
	}
	if s := e3.Stats(); s.Executed != 0 || s.CacheHits != 1 {
		t.Fatalf("post-cold stats = %+v", s)
	}
}

// A write-only cache ignores only the records that predate it: a job the run
// repeats is served from the record the run itself wrote, not simulated
// twice — for invocations, generic jobs and min-heap measurements alike —
// and counts as Deduped, not as a cache hit.
func TestWriteOnlyServesItsOwnWrites(t *testing.T) {
	d := testBench(t)
	cache, err := OpenCache(t.TempDir(), WriteOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	e := New(Options{Workers: 1, Cache: cache})
	for i := 0; i < 2; i++ {
		if _, err := e.Run(d, smallCfg()); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	if s := e.Stats(); s.Executed != 1 || s.CacheHits != 0 || s.Deduped != 1 {
		t.Fatalf("repeated invocation: stats = %+v, want Executed: 1, Deduped: 1", s)
	}

	g := New(Options{Workers: 1, Cache: cache})
	for i := 0; i < 2; i++ {
		tk, err := g.SubmitGeneric("writeonly", 1, func(obs.Recorder) ([]byte, error) {
			return []byte("1"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	g.Close()
	if s := g.Stats(); s.Executed != 1 || s.CacheHits != 0 || s.Deduped != 1 {
		t.Fatalf("repeated generic job: stats = %+v, want Executed: 1, Deduped: 1", s)
	}

	// The min-heap table keeps resolved bounds within an engine, so the repeat that
	// reaches the cache is a second engine's.
	p := MinHeapParams{Events: 200, Iterations: 1, Invocations: 1, Seed: 7}
	for i, want := range []int64{1, 0} {
		m := New(Options{Workers: 2, Cache: cache})
		if _, err := m.MinHeapMB(d, p); err != nil {
			t.Fatal(err)
		}
		m.Close()
		if s := m.Stats(); s.MinHeapSearches != want || s.MinHeapCacheHits != 0 || (want == 0 && s.Deduped != 1) {
			t.Fatalf("min-heap measurement %d: stats = %+v, want %d searches and no cache hit", i+1, s, want)
		}
	}
}

func TestEngineMinHeapCached(t *testing.T) {
	dir := t.TempDir()
	d := testBench(t)
	p := MinHeapParams{Events: 200, Iterations: 1, Invocations: 2, Seed: 7}

	cache := OpenTestCache(t, dir, ReadWrite)
	e1 := New(Options{Workers: 4, Cache: cache})
	mb1, err := e1.MinHeapMB(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if mb1 <= 0 {
		t.Fatalf("min heap = %v", mb1)
	}
	// Second call in-process comes from the kept bound, not a new search.
	mb2, err := e1.MinHeapMB(d, p)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if mb2 != mb1 {
		t.Fatalf("repeated min heap %v != %v", mb2, mb1)
	}
	if s := e1.Stats(); s.MinHeapSearches != 1 {
		t.Fatalf("stats = %+v, want one search", s)
	}

	// A fresh engine finds the measurement in the cache: no probes run.
	cache2 := OpenTestCache(t, dir, ReadWrite)
	e2 := New(Options{Workers: 4, Cache: cache2})
	defer e2.Close()
	mb3, err := e2.MinHeapMB(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if mb3 != mb1 {
		t.Fatalf("cached min heap %v != %v", mb3, mb1)
	}
	s := e2.Stats()
	if s.MinHeapCacheHits != 1 || s.MinHeapSearches != 0 || s.Executed != 0 {
		t.Fatalf("warm stats = %+v, want pure cache hit", s)
	}
}

// TestMinHeapCacheRecords: a min-heap bound is cached as the JSON payload of
// a generic record. A payload that is not a positive number, and an archive
// of the dedicated min-heap kind older caches hold, is a miss: the bound is
// re-measured and its record overwritten with one the next engine serves.
func TestMinHeapCacheRecords(t *testing.T) {
	d := testBench(t)
	p := MinHeapParams{Events: 100, Iterations: 1, Invocations: 1, Seed: 5}
	k, err := minHeapKey(d, p)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 50.625 // what lifecycleRun's 50MB OOM threshold measures
	generic := func(data string) string {
		return fmt.Sprintf(`{"version":2,"kind":"generic","generic":{"key":%q,"job_kind":"minheap","data":%s}}`, k, data)
	}
	rows := []struct {
		name   string
		stored string
		hit    bool
	}{
		{"valid", generic("50.625"), true},
		{"zero", generic("0"), false},
		{"negative", generic("-1"), false},
		{"null", generic("null"), false},
		{"string", generic(`"x"`), false},
		{"minheap archive", fmt.Sprintf(`{"version":2,"kind":"minheap","min_heap":{"key":%q,"workload":"fop","min_heap_mb":13}}`, k), false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, k.Shard(), string(k)+".json")
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(row.stored), 0o644); err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				cache, err := OpenCache(dir, ReadWrite)
				if err != nil {
					t.Fatal(err)
				}
				e := New(Options{Workers: 1, Cache: cache, runFn: lifecycleRun})
				mb, err := e.MinHeapMB(d, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if err := cache.Close(); err != nil {
					t.Fatal(err)
				}
				if mb != bound {
					t.Fatalf("pass %d: bound %v, want %v", pass, mb, bound)
				}
				// The second pass reads what the first left: a hit whether
				// the stored record was valid or was overwritten.
				hit := row.hit || pass == 1
				s := e.Stats()
				if hit && (s.MinHeapCacheHits != 1 || s.MinHeapSearches != 0) {
					t.Fatalf("pass %d: stats %+v, want a cache hit", pass, s)
				}
				if !hit && (s.MinHeapCacheHits != 0 || s.MinHeapSearches != 1) {
					t.Fatalf("pass %d: stats %+v, want a miss and one search", pass, s)
				}
			}
		})
	}
}

// stubRun fabricates results: OOM below threshold, success above.
func stubRun(thresholdMB float64, calls *int64) func(*workload.Descriptor, workload.RunConfig) (*workload.Result, error) {
	return func(d *workload.Descriptor, cfg workload.RunConfig) (*workload.Result, error) {
		atomic.AddInt64(calls, 1)
		if cfg.HeapMB < thresholdMB {
			return nil, &workload.ErrOutOfMemory{Workload: d.Name, HeapMB: cfg.HeapMB, Kind: cfg.Collector}
		}
		return &workload.Result{Workload: d.Name, Config: cfg,
			Iterations: []workload.IterationResult{{WallNS: 1}}}, nil
	}
}

func TestValidateMinHeapGrowsToValidBound(t *testing.T) {
	d := testBench(t)
	var calls int64
	// The searched bound (40MB) is below what the sweep seeds need (45MB):
	// validation must grow it past the threshold and return the grown value.
	run := stubRun(45, &calls)
	p := MinHeapParams{Events: 100, Iterations: 1, Invocations: 3, Seed: 9}
	got, err := validateMinHeap(run, d, workload.RunConfig{Collector: gc.G1}, 40, p)
	if err != nil {
		t.Fatal(err)
	}
	if got < 45 {
		t.Fatalf("validated bound %v below the viable threshold", got)
	}
	if got > 40*1.2 {
		t.Fatalf("bound %v grew far past the threshold", got)
	}
}

// The satellite fix: a bound that still OOMs after 20 growth attempts is an
// error, not a silently returned unusable heap size.
func TestValidateMinHeapErrorsWhenNeverValid(t *testing.T) {
	d := testBench(t)
	var calls int64
	run := stubRun(1e9, &calls) // nothing ever fits
	p := MinHeapParams{Events: 100, Iterations: 1, Invocations: 2, Seed: 9}
	_, err := validateMinHeap(run, d, workload.RunConfig{Collector: gc.G1}, 40, p)
	if err == nil {
		t.Fatal("validation that never succeeds must return an error")
	}
	if want := int64(minHeapGrowthAttempts * 2); calls != want {
		t.Fatalf("ran %d probes, want %d (every attempt, every invocation)", calls, want)
	}
}

// Transient (non-OOM) failures abort validation immediately.
func TestValidateMinHeapPropagatesTransientErrors(t *testing.T) {
	d := testBench(t)
	boom := fmt.Errorf("disk on fire")
	run := func(*workload.Descriptor, workload.RunConfig) (*workload.Result, error) {
		return nil, boom
	}
	p := MinHeapParams{Events: 100, Iterations: 1, Invocations: 1, Seed: 9}
	_, err := validateMinHeap(run, d, workload.RunConfig{Collector: gc.G1}, 40, p)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped transient failure", err)
	}
}
