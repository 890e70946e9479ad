package exper

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chopin/internal/gc"
	"chopin/internal/nominal"
	"chopin/internal/obs"
	"chopin/internal/persist"
	"chopin/internal/workload"
)

// minHeapGrowthAttempts bounds how many times a candidate minimum heap is
// grown by minHeapGrowthFactor while validating it against every invocation
// seed a sweep will use.
const (
	minHeapGrowthAttempts = 20
	minHeapGrowthFactor   = 1.03
)

// MinHeapTicket is a handle to an asynchronous minimum-heap measurement.
// In a plan's job DAG it is the prerequisite node: every sweep's heap sizes
// derive from its result, so harnesses submit the min-heap measurements for
// all workloads up front and attach each grid as a dependent the moment its
// anchor resolves.
type MinHeapTicket struct {
	key  Key
	done chan struct{}
	mb   float64
	err  error
}

// Wait blocks until the measurement completes and returns the bound in MB.
func (t *MinHeapTicket) Wait() (float64, error) {
	<-t.done
	return t.mb, t.err
}

// Done is closed when the measurement completes.
func (t *MinHeapTicket) Done() <-chan struct{} { return t.done }

// Key returns the canonical content hash of the measurement.
func (t *MinHeapTicket) Key() Key { return t.key }

func newMinHeapTicket(k Key) *MinHeapTicket {
	return &MinHeapTicket{key: k, done: make(chan struct{})}
}

func resolvedMinHeapTicket(k Key, mb float64) *MinHeapTicket {
	t := newMinHeapTicket(k)
	t.mb = mb
	close(t.done)
	return t
}

// SubmitMinHeap starts measuring the benchmark's minimum viable heap under p
// and returns immediately with a ticket for the bound. The search runs on a
// dedicated orchestration goroutine, off the pool, so its probes — each an
// ordinary content-addressed engine job — always have workers to land on.
// Measurements are content-addressed,
// single-flighted (concurrent submissions for the same key share one
// search), memoized in-process and persisted in the cache.
func (e *Engine) SubmitMinHeap(d *workload.Descriptor, p MinHeapParams) (*MinHeapTicket, error) {
	if p.Invocations < 1 {
		p.Invocations = 1
	}
	if p.Iterations < 1 {
		p.Iterations = 1
	}
	k, err := minHeapKey(d, p)
	if err != nil {
		return nil, err
	}

	sh := e.shard(k)
	sh.mu.Lock()
	if mb, ok := sh.minMemo[k]; ok {
		sh.mu.Unlock()
		return resolvedMinHeapTicket(k, mb), nil
	}
	if t, ok := sh.minflight[k]; ok {
		sh.mu.Unlock()
		return t, nil
	}
	t := newMinHeapTicket(k)
	sh.minflight[k] = t
	sh.mu.Unlock()

	go func() {
		mb, err := e.minHeap(k, d, p)
		sh.mu.Lock()
		delete(sh.minflight, k)
		if err == nil {
			sh.minMemo[k] = mb
		}
		sh.mu.Unlock()
		t.mb, t.err = mb, err
		close(t.done)
	}()
	return t, nil
}

// MinHeapMB measures the benchmark's minimum viable heap under p: a
// bracketing search (every probe an engine job, so probes dedup and cache
// like any other invocation), then validation of the bound against every
// invocation seed the sweep will use, growing it 3% per failed attempt.
// Synchronous form of SubmitMinHeap.
//
// Unlike the pre-engine harness, a bound that still fails validation after
// 20 growth attempts is an error — not a silently returned heap size whose
// 1x row then OOMs its way through the whole sweep.
func (e *Engine) MinHeapMB(d *workload.Descriptor, p MinHeapParams) (float64, error) {
	t, err := e.SubmitMinHeap(d, p)
	if err != nil {
		return 0, err
	}
	return t.Wait()
}

func minHeapEvent(kind EventKind, d *workload.Descriptor, k Key, mb float64) Event {
	return Event{Kind: kind, Key: k, Benchmark: d.Name, MinHeapMB: mb}
}

// minHeapBase is the probe configuration every measurement derives from:
// the paper's GMD definition anchors min-heap bounds on the baseline G1
// collector.
func minHeapBase(p MinHeapParams) workload.RunConfig {
	return workload.RunConfig{
		Collector:  gc.G1,
		Iterations: 1,
		Events:     p.Events,
		Seed:       p.Seed,
	}
}

// minHeap runs one measurement: nominal.MinHeapWith's exponential-then-
// bisection search, seed validation, then — only on success — the cache
// write, so a search aborted by Close never persists a partial result.
func (e *Engine) minHeap(k Key, d *workload.Descriptor, p MinHeapParams) (float64, error) {
	if e.cache != nil {
		if rec, ok := e.cache.getMinHeap(k); ok {
			atomic.AddInt64(&e.minHeapCacheHits, 1)
			e.emit(minHeapEvent(MinHeapCacheHit, d, k, rec.MinHeapMB))
			e.recordMinHeap(obs.KindCacheHit, d, k, rec.MinHeapMB)
			return rec.MinHeapMB, nil
		}
		e.recordMinHeap(obs.KindCacheMiss, d, k, 0)
	}

	e.emit(minHeapEvent(MinHeapStarted, d, k, 0))
	atomic.AddInt64(&e.minHeapSearches, 1)

	base := minHeapBase(p)
	bound, err := nominal.MinHeapWith(e.probe, d, base, 1)
	if err != nil {
		return 0, fmt.Errorf("measuring min heap for %s: %w", d.Name, err)
	}
	bound, err = validateMinHeap(e.probe, d, base, bound, p)
	if err != nil {
		return 0, err
	}

	if e.cache != nil {
		rec := &persist.MinHeapRecord{Key: string(k), Workload: d.Name, MinHeapMB: bound}
		if werr := e.cache.putMinHeap(k, rec); werr != nil {
			return 0, fmt.Errorf("exper: caching %s min heap: %w", d.Name, werr)
		}
	}
	e.emit(minHeapEvent(MinHeapFinished, d, k, bound))
	e.recordMinHeap(obs.KindMinHeap, d, k, bound)
	return bound, nil
}

// recordMinHeap emits a telemetry event for min-heap measurement accounting;
// Value carries the measured bound in MB (zero before measurement).
func (e *Engine) recordMinHeap(kind obs.Kind, d *workload.Descriptor, k Key, mb float64) {
	if !e.rec.Enabled() {
		return
	}
	e.rec.Record(obs.Event{
		Kind: kind, TNS: time.Now().UnixNano(),
		Run: string(k), Benchmark: d.Name, Value: mb,
	})
}

// probe runs one min-heap probe as an engine job and waits for it. Probes
// dedup and cache like any other invocation, but they are cancellable: a
// Close racing the search resolves them with ErrEngineClosed, which the
// search surfaces as a hard error without writing anything.
func (e *Engine) probe(d *workload.Descriptor, cfg workload.RunConfig) (*workload.Result, error) {
	job, err := NewJob(d, cfg)
	if err != nil {
		return nil, err
	}
	return e.submitJob(job, submitFlags{cancelOnClose: true}).Wait()
}

// validateMinHeap confirms the searched bound completes under every
// invocation seed the sweep will use: serial growth rounds of 3%, each
// round's invocations in parallel goroutines. An OOM under any seed fails
// the attempt; any other error aborts the measurement. A bound that never
// validates is an error.
func validateMinHeap(run nominal.RunFunc, d *workload.Descriptor, base workload.RunConfig, bound float64, p MinHeapParams) (float64, error) {
	for attempt := 0; attempt < minHeapGrowthAttempts; attempt++ {
		errs := make([]error, p.Invocations)
		var wg sync.WaitGroup
		for i := 0; i < p.Invocations; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cfg := base
				cfg.HeapMB = bound
				cfg.Iterations = p.Iterations
				cfg.Seed = p.Seed + uint64(i)*1_000_003 + 17
				_, errs[i] = run(d, cfg)
			}(i)
		}
		wg.Wait()

		ok := true
		for _, err := range errs {
			if err == nil {
				continue
			}
			var oom *workload.ErrOutOfMemory
			if !errors.As(err, &oom) {
				return 0, fmt.Errorf("validating min heap for %s: %w", d.Name, err)
			}
			ok = false
		}
		if ok {
			return bound, nil
		}
		bound *= minHeapGrowthFactor
	}
	return 0, fmt.Errorf("exper: %s: minimum heap failed validation after %d growth attempts (reached %.1fMB)",
		d.Name, minHeapGrowthAttempts, bound)
}
