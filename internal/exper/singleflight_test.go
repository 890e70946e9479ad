package exper

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chopin/internal/workload"
)

// TestColdCacheSingleFlight pins the single-flight guarantee at its
// narrowest: many concurrent submissions of one key against a cold cache
// must funnel into exactly one simulator execution. The
// runFn seam holds the first execution open until every submission has
// registered, so the test deterministically covers the window where a
// second submission could slip past the in-flight map and re-execute.
func TestColdCacheSingleFlight(t *testing.T) {
	d := testBench(t)
	cache := OpenTestCache(t, t.TempDir(), ReadWrite)

	var executions atomic.Int64
	release := make(chan struct{})
	e := New(Options{
		Workers: 4,
		Cache:   cache,
		runFn: func(d *workload.Descriptor, cfg workload.RunConfig) (*workload.Result, error) {
			executions.Add(1)
			<-release
			return workload.Run(d, cfg)
		},
	})
	defer e.Close()

	const n = 16
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := e.Submit(d, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	close(release)

	var wg sync.WaitGroup
	for _, tk := range tickets {
		wg.Add(1)
		go func(tk *Ticket) {
			defer wg.Done()
			if _, err := tk.Wait(); err != nil {
				t.Errorf("deduplicated submission failed: %v", err)
			}
		}(tk)
	}
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("cold-cache single flight executed %d times, want 1", got)
	}
	s := e.Stats()
	if s.Executed != 1 || s.Deduped != n-1 {
		t.Fatalf("stats = %+v, want Executed=1 Deduped=%d", s, n-1)
	}

	// After the flight resolves, the same key is served by the cache (the
	// write-behind pending map or disk), never by a third execution, and
	// counts as the repeat it is, as the coalesced submissions did.
	if _, err := e.Run(d, smallCfg()); err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("warm re-run executed again (%d executions)", got)
	}
	if s := e.Stats(); s.CacheHits != 0 || s.Deduped != n {
		t.Fatalf("re-run of a job this cache wrote: stats = %+v, want CacheHits=0 Deduped=%d", s, n)
	}
}

// TestConcurrentRunsColdCacheExecuteOnce is the unstaged form of the
// single-flight regression: real goroutines racing Run for one key, cold
// cache. However the submissions interleave, the execution count
// must be exactly one — a second execution means the in-flight window
// leaked between the cache check and the job registration.
func TestConcurrentRunsColdCacheExecuteOnce(t *testing.T) {
	d := testBench(t)
	cache := OpenTestCache(t, t.TempDir(), ReadWrite)

	var executions atomic.Int64
	start := make(chan struct{})
	e := New(Options{
		Workers: 8,
		Cache:   cache,
		runFn: func(d *workload.Descriptor, cfg workload.RunConfig) (*workload.Result, error) {
			executions.Add(1)
			return workload.Run(d, cfg)
		},
	})
	defer e.Close()

	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := e.Run(d, smallCfg()); err != nil {
				t.Errorf("concurrent Run failed: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("%d concurrent cold Runs executed %d times, want 1", n, got)
	}
	s := e.Stats()
	if s.Executed != 1 {
		t.Fatalf("stats disagree with the seam: %+v", s)
	}
	if s.Deduped != n-1 || s.CacheHits != 0 {
		t.Fatalf("the other %d submissions must count as Deduped, in flight or served: %+v", n-1, s)
	}
}

// TestColdRunStatsDeterministic: a plan that submits every job three times
// must report the same Stats on every run, whichever submitter wins each
// race. A repeat that meets its job in flight and one that finds the record
// this run wrote (pending or on disk) both count as Deduped, so a cold run,
// a -cold re-run over the cache it filled and a warm run each report counts
// that are a function of the plan alone. Each run staggers its submitters
// and executions differently, so repeats land on both sides of their first
// execution's end.
func TestColdRunStatsDeterministic(t *testing.T) {
	d := testBench(t)
	const distinct, copies = 6, 3
	cfgs := make([]workload.RunConfig, distinct)
	for i := range cfgs {
		cfgs[i] = smallCfg()
		cfgs[i].Events = 50
		cfgs[i].Seed = uint64(i + 1)
	}
	run := func(dir string, mode CacheMode, stagger time.Duration) Stats {
		t.Helper()
		cache, err := OpenCache(dir, mode)
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close()
		e := New(Options{
			Workers: 2,
			Cache:   cache,
			runFn: func(d *workload.Descriptor, cfg workload.RunConfig) (*workload.Result, error) {
				time.Sleep(time.Duration(cfg.Seed%3) * stagger)
				return workload.Run(d, cfg)
			},
		})
		var wg sync.WaitGroup
		for g := 0; g < copies; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, cfg := range cfgs {
					time.Sleep(time.Duration(g) * stagger / 2)
					if _, err := e.Run(d, cfg); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}

	dir := t.TempDir()
	cold := Stats{Executed: distinct, Deduped: distinct * (copies - 1)}
	warm := Stats{CacheHits: distinct, Deduped: distinct * (copies - 1)}
	for i, c := range []struct {
		name    string
		dir     string
		mode    CacheMode
		stagger time.Duration
		want    Stats
	}{
		{"cold", dir, ReadWrite, 0, cold},
		{"cold, staggered", t.TempDir(), ReadWrite, 2 * time.Millisecond, cold},
		{"-cold over a filled cache", dir, WriteOnly, time.Millisecond, cold},
		{"warm", dir, ReadWrite, time.Millisecond, warm},
	} {
		if got := run(c.dir, c.mode, c.stagger); got != c.want {
			t.Errorf("run %d (%s): stats = %+v, want %+v", i+1, c.name, got, c.want)
		}
	}
}
