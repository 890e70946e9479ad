package exper

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"chopin/internal/gc"
	"chopin/internal/obs"
	"chopin/internal/trace"
	"chopin/internal/workload"
)

var updateLifecycle = flag.Bool("update", false, "rewrite golden files")

// lifecycle captures the two streams an engine emits for its jobs: the
// Observer's progress events and the Recorder's telemetry.
type lifecycle struct {
	mu       sync.Mutex
	progress []Event
	rec      obs.Buffer
}

func (lc *lifecycle) observe(ev Event) {
	lc.mu.Lock()
	lc.progress = append(lc.progress, ev)
	lc.mu.Unlock()
}

// engine builds a one-worker engine feeding lc, so both streams arrive in a
// deterministic order.
func (lc *lifecycle) engine(opt Options) *Engine {
	opt.Workers = 1
	opt.Observer = lc.observe
	opt.Recorder = &lc.rec
	return New(opt)
}

// render prints both streams with their deterministic fields only: host
// timestamps and durations are dropped, and job keys become labels numbered
// in order of first appearance.
func (lc *lifecycle) render(title string) string {
	labels := map[string]string{}
	label := func(k string) string {
		if k == "" {
			return "-"
		}
		if l, ok := labels[k]; ok {
			return l
		}
		l := fmt.Sprintf("#%d", len(labels)+1)
		labels[k] = l
		return l
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", title)
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, ev := range lc.progress {
		fmt.Fprintf(&b, "observer %s %s bench=%s gc=%s heap=%g seed=%d minheap=%g wall=%g cpu=%g err=%q\n",
			ev.Kind, label(string(ev.Key)), ev.Benchmark, ev.Collector, ev.HeapMB, ev.Seed,
			ev.MinHeapMB, ev.WallNS, ev.CPUNS, ev.Err)
	}
	for _, ev := range lc.rec.Events() {
		fmt.Fprintf(&b, "recorder %s %s bench=%s gc=%s value=%g cpu=%g err=%q\n",
			ev.Kind, label(ev.Run.String()), ev.Benchmark, ev.Collector, ev.Value, ev.CPUNS, ev.Err)
	}
	return b.String()
}

// lifecycleRun stands in for the simulator: it records one event through the
// run's recorder, runs out of memory below 50MB, fails on seed 13 and
// otherwise returns a one-iteration result.
func lifecycleRun(d *workload.Descriptor, cfg workload.RunConfig) (*workload.Result, error) {
	if rec := obs.Or(cfg.Recorder); rec.Enabled() {
		rec.Record(obs.Event{Kind: obs.KindGCPause, Value: cfg.HeapMB})
	}
	switch {
	case cfg.HeapMB < 50:
		return nil, &workload.ErrOutOfMemory{Workload: d.Name, HeapMB: cfg.HeapMB, Kind: cfg.Collector}
	case cfg.Seed == 13:
		return nil, errors.New("injected fault")
	}
	return &workload.Result{Workload: d.Name, Config: cfg,
		Iterations: []workload.IterationResult{{WallNS: 2e6, CPUNS: 3e6}}, Log: &trace.Log{}}, nil
}

// lifecycleGeneric is a generic job's work: it records one event and returns
// a payload, or fails when fail is set.
func lifecycleGeneric(fail bool) func(obs.Recorder) ([]byte, error) {
	return func(rec obs.Recorder) ([]byte, error) {
		rec.Record(obs.Event{Kind: obs.KindSample, Value: 1})
		if fail {
			return nil, errors.New("generic fault")
		}
		return []byte(`{"ok":true}`), nil
	}
}

func lifecycleCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := OpenCache(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestJobLifecycleStreams pins what the engine emits at every lifecycle
// point of every job kind — queued, started, finished or failed, cache hit
// or miss, min-heap measured or cached, and probe cancelled by Close — as the
// Observer and Recorder see it. Run with -update to rewrite
// testdata/lifecycle.golden.
func TestJobLifecycleStreams(t *testing.T) {
	d := testBench(t)
	cfg := func(heapMB float64, seed uint64) workload.RunConfig {
		return workload.RunConfig{HeapMB: heapMB, Collector: gc.G1, Iterations: 1, Events: 100, Seed: seed}
	}
	var out strings.Builder

	// Invocations: executed, cache hit, OOM, injected fault, and a run
	// submitted after Close, which executes inline.
	{
		var lc lifecycle
		e := lc.engine(Options{Cache: lifecycleCache(t, t.TempDir()), runFn: lifecycleRun})
		for _, c := range []workload.RunConfig{cfg(100, 1), cfg(100, 1), cfg(40, 1), cfg(100, 13)} {
			e.Run(d, c)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(d, cfg(100, 2)); err != nil {
			t.Fatalf("run after close: %v", err)
		}
		out.WriteString(lc.render("invocation"))
	}

	// Generic jobs: executed, cache hit, failed.
	{
		var lc lifecycle
		e := lc.engine(Options{Cache: lifecycleCache(t, t.TempDir())})
		type payload struct{ N int }
		run := func(p payload, fail bool) error {
			tk, err := e.SubmitGeneric("lifecycle", p, lifecycleGeneric(fail))
			if err != nil {
				t.Fatal(err)
			}
			_, err = tk.Wait()
			return err
		}
		run(payload{1}, false)
		run(payload{1}, false)
		if err := run(payload{2}, true); err == nil {
			t.Fatal("failing generic job succeeded")
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		out.WriteString(lc.render("generic"))
	}

	// Min-heap searches: measured by one engine, then a cache hit in a
	// second engine on the same cache.
	{
		dir := t.TempDir()
		p := MinHeapParams{Events: 100, Iterations: 1, Invocations: 1, Seed: 5}
		for _, title := range []string{"minheap measured", "minheap cached"} {
			var lc lifecycle
			e := lc.engine(Options{Cache: lifecycleCache(t, dir), runFn: lifecycleRun})
			if _, err := e.MinHeapMB(d, p); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			out.WriteString(lc.render(title))
		}
	}

	// A min-heap probe submitted while the engine closes is cancelled.
	{
		var lc lifecycle
		e := lc.engine(Options{runFn: lifecycleRun})
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.probe(d, cfg(100, 1)); !errors.Is(err, ErrEngineClosed) {
			t.Fatalf("probe after close: err %v, want ErrEngineClosed", err)
		}
		out.WriteString(lc.render("probe cancelled"))
	}

	golden := filepath.Join("testdata", "lifecycle.golden")
	if *updateLifecycle {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("job lifecycle streams differ from %s (re-run with -update to inspect):\n%s", golden, got)
	}
}
