package exper

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"chopin/internal/cpuarch"
	"chopin/internal/gc"
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

func TestEngineMemoize(t *testing.T) {
	e := New(Options{Workers: 2, Memoize: true})
	defer e.Close()
	d := testBench(t)

	r1, err := e.Run(d, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(d, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("memoized run returned a different result pointer")
	}
	s := e.Stats()
	if s.Executed != 1 || s.MemoHits != 1 {
		t.Fatalf("stats = %+v, want 1 executed / 1 memo hit", s)
	}
}

func TestEngineDedupsConcurrentIdenticalJobs(t *testing.T) {
	e := New(Options{Workers: 4, Memoize: true})
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
	if s.Deduped+s.MemoHits != n-1 {
		t.Fatalf("stats = %+v, want %d deduped+memo hits", s, n-1)
	}
}

func TestEngineCachesResults(t *testing.T) {
	dir := t.TempDir()
	d := testBench(t)

	cache, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
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
	cache2, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
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

	cache, _ := OpenCache(dir, ReadWrite)
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

	cache2, _ := OpenCache(dir, ReadWrite)
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

	cache, _ := OpenCache(dir, ReadWrite)
	e1 := New(Options{Workers: 1, Cache: cache})
	if _, err := e1.Run(d, smallCfg()); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	cold, _ := OpenCache(dir, WriteOnly)
	e2 := New(Options{Workers: 1, Cache: cold})
	if _, err := e2.Run(d, smallCfg()); err != nil {
		t.Fatal(err)
	}
	e2.Close()
	if s := e2.Stats(); s.Executed != 1 || s.CacheHits != 0 {
		t.Fatalf("cold stats = %+v, want forced execution", s)
	}

	// The overwritten record still serves the next warm engine.
	warm, _ := OpenCache(dir, ReadWrite)
	e3 := New(Options{Workers: 1, Cache: warm})
	defer e3.Close()
	if _, err := e3.Run(d, smallCfg()); err != nil {
		t.Fatal(err)
	}
	if s := e3.Stats(); s.Executed != 0 || s.CacheHits != 1 {
		t.Fatalf("post-cold stats = %+v", s)
	}
}

func TestEngineMinHeapCached(t *testing.T) {
	dir := t.TempDir()
	d := testBench(t)
	p := MinHeapParams{Events: 200, Iterations: 1, Invocations: 2, Seed: 7}

	cache, _ := OpenCache(dir, ReadWrite)
	e1 := New(Options{Workers: 4, Cache: cache})
	mb1, err := e1.MinHeapMB(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if mb1 <= 0 {
		t.Fatalf("min heap = %v", mb1)
	}
	// Second call in-process comes from the memo, not a new search.
	mb2, err := e1.MinHeapMB(d, p)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if mb2 != mb1 {
		t.Fatalf("memoized min heap %v != %v", mb2, mb1)
	}
	if s := e1.Stats(); s.MinHeapSearches != 1 {
		t.Fatalf("stats = %+v, want one search", s)
	}

	// A fresh engine finds the measurement in the cache: no probes run.
	cache2, _ := OpenCache(dir, ReadWrite)
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
