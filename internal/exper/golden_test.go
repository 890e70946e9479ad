package exper_test

import (
	"encoding/json"
	"testing"

	"chopin/internal/exper"
	"chopin/internal/gc"
	"chopin/internal/harness"
	"chopin/internal/obs"
	"chopin/internal/workload"
)

// goldenOpt is a small fixed-seed sweep: one benchmark, two collectors, two
// heap factors, two invocations — 8 sweep jobs plus the min-heap probes.
func goldenOpt(eng *exper.Engine) harness.Options {
	return harness.Options{
		Collectors:  []gc.Kind{gc.Serial, gc.G1},
		HeapFactors: []float64{1.5, 3},
		Invocations: 2,
		Iterations:  2,
		Events:      200,
		Seed:        7,
		Engine:      eng,
	}
}

func goldenBench(t *testing.T) *workload.Descriptor {
	t.Helper()
	d, err := workload.ByName("fop")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func gridBytes(t *testing.T, d *workload.Descriptor, eng *exper.Engine) ([]byte, float64) {
	t.Helper()
	grid, minMB, err := harness.LBOGrid(d, goldenOpt(eng))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(grid)
	if err != nil {
		t.Fatal(err)
	}
	return b, minMB
}

// TestGoldenDeterminism runs the same plan serial, parallel, and warm from
// cache, and demands byte-identical aggregated results: scheduling and
// caching must be invisible in the output.
func TestGoldenDeterminism(t *testing.T) {
	d := goldenBench(t)
	dir := t.TempDir()

	// Cold, serial, caching as it goes.
	cache, err := exper.OpenCache(dir, exper.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	serial := exper.New(exper.Options{Workers: 1, Cache: cache})
	serialBytes, serialMin := gridBytes(t, d, serial)
	serial.Close()
	if s := serial.Stats(); s.Executed == 0 {
		t.Fatalf("cold run executed nothing: %+v", s)
	}

	// Cold again, wide pool, separate cache: execution order scrambled.
	cache2, err := exper.OpenCache(t.TempDir(), exper.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	parallel := exper.New(exper.Options{Workers: 8, Cache: cache2})
	parallelBytes, parallelMin := gridBytes(t, d, parallel)
	parallel.Close()

	if serialMin != parallelMin {
		t.Fatalf("min heap differs serial vs parallel: %v vs %v", serialMin, parallelMin)
	}
	if string(serialBytes) != string(parallelBytes) {
		t.Fatal("serial and parallel runs produced different grids")
	}

	// Warm: a fresh engine over the serial run's cache must reproduce the
	// grid byte-for-byte with ZERO simulator invocations.
	warmCache, err := exper.OpenCache(dir, exper.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	warm := exper.New(exper.Options{Workers: 8, Cache: warmCache})
	warmBytes, warmMin := gridBytes(t, d, warm)
	warm.Close()

	if warmMin != serialMin {
		t.Fatalf("min heap differs warm vs cold: %v vs %v", warmMin, serialMin)
	}
	if string(warmBytes) != string(serialBytes) {
		t.Fatal("warm-cache run produced a different grid than the cold run")
	}
	s := warm.Stats()
	if s.Executed != 0 {
		t.Fatalf("warm run executed %d invocations, want 0", s.Executed)
	}
	if s.CacheHits == 0 || s.MinHeapCacheHits != 1 {
		t.Fatalf("warm stats = %+v, want pure cache traffic", s)
	}
}

// TestPoolTasksConserved checks the pool's accounting against the engine's
// counters on real runs, cold and then warm over the same cache: every task
// a pool worker executes is one job that either ran the simulator or was
// served from the cache, so the sched-worker events' task counts must sum
// to Executed + CacheHits. Memo hits, deduplicated submissions and min-heap
// cache hits never reach the pool and appear on neither side.
func TestPoolTasksConserved(t *testing.T) {
	d := goldenBench(t)
	dir := t.TempDir()
	for _, pass := range []string{"cold", "warm"} {
		cache, err := exper.OpenCache(dir, exper.ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		var buf obs.Buffer
		eng := exper.New(exper.Options{Workers: 2, Cache: cache, Recorder: &buf})
		if _, _, err := harness.LBOGrid(d, goldenOpt(eng)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		var tasks, workers int64
		for _, e := range buf.Events() {
			if e.Kind == obs.KindSchedWorker {
				tasks += int64(e.Tasks)
				workers++
			}
		}
		s := eng.Stats()
		if workers != 2 {
			t.Fatalf("%s: %d sched-worker events, want 2", pass, workers)
		}
		if tasks != s.Executed+s.CacheHits {
			t.Fatalf("%s: pool ran %d tasks, engine counts %d executed + %d cache hits",
				pass, tasks, s.Executed, s.CacheHits)
		}
		if tasks == 0 {
			t.Fatalf("%s: pool ran no tasks", pass)
		}
		t.Logf("%s: %d tasks = %d executed + %d cache hits", pass, tasks, s.Executed, s.CacheHits)
	}
}

// TestInterruptedPlanResumes warms the cache with a subset of the plan (as
// if the process died mid-sweep), then runs the full plan: only the missing
// cells execute.
func TestInterruptedPlanResumes(t *testing.T) {
	d := goldenBench(t)
	dir := t.TempDir()

	// "Interrupted" first run: only the 1.5x column completes.
	cache, err := exper.OpenCache(dir, exper.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	partial := exper.New(exper.Options{Workers: 4, Cache: cache})
	opt := goldenOpt(partial)
	opt.HeapFactors = []float64{1.5}
	if _, _, err := harness.LBOGrid(d, opt); err != nil {
		t.Fatal(err)
	}
	partial.Close()

	// Resumed run over the full plan: the 1.5x column and the min-heap
	// measurement come from the cache; only the 3x column executes —
	// 2 collectors x 1 new factor x 2 invocations = 4 jobs.
	cache2, err := exper.OpenCache(dir, exper.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	resumed := exper.New(exper.Options{Workers: 4, Cache: cache2})
	grid, _, err := harness.LBOGrid(d, goldenOpt(resumed))
	if err != nil {
		t.Fatal(err)
	}
	resumed.Close()

	s := resumed.Stats()
	if s.Executed != 4 {
		t.Fatalf("resumed run executed %d invocations, want exactly the 4 missing", s.Executed)
	}
	if s.MinHeapCacheHits != 1 || s.MinHeapSearches != 0 {
		t.Fatalf("resumed stats = %+v, want the min-heap bound from cache", s)
	}
	if len(grid.Cells) != 4 { // 2 collectors x 2 factors
		t.Fatalf("grid has %d cells, want 4", len(grid.Cells))
	}
	for _, c := range grid.Cells {
		if !c.Completed {
			t.Fatalf("cell %+v incomplete after resume", c)
		}
	}
}

// TestLatencyEventsSurviveCache checks that a latency experiment served from
// the cache still carries its per-event samples — distributions rendered
// offline must match the original run.
func TestLatencyEventsSurviveCache(t *testing.T) {
	d := goldenBench(t)
	dir := t.TempDir()

	run := func() []harness.LatencyResult {
		cache, err := exper.OpenCache(dir, exper.ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		eng := exper.New(exper.Options{Workers: 4, Cache: cache})
		defer eng.Close()
		res, err := harness.Latency(d, []float64{3}, goldenOpt(eng))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run()
	warmRes := run()
	if len(cold) != len(warmRes) {
		t.Fatalf("result count changed: %d vs %d", len(cold), len(warmRes))
	}
	for i := range cold {
		if !cold[i].Completed || !warmRes[i].Completed {
			t.Fatalf("cell %d incomplete", i)
		}
		if len(cold[i].Events) == 0 || len(cold[i].Events) != len(warmRes[i].Events) {
			t.Fatalf("cell %d events: %d cold vs %d warm", i, len(cold[i].Events), len(warmRes[i].Events))
		}
		if cold[i].Simple.Percentile(99) != warmRes[i].Simple.Percentile(99) {
			t.Fatalf("cell %d p99 differs cold vs warm", i)
		}
	}
}
