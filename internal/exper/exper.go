// Package exper is the unified experiment engine: every simulator
// invocation — sweep cell, latency run, min-heap probe — becomes a
// first-class Job, canonically hashed over its (descriptor, RunConfig)
// content and executed by a single worker pool shared across an entire
// experiment plan.
//
// Whole-suite sweeps are expressed as batches of jobs submitted up front:
// Submit registers a job and returns a Ticket immediately, Wait blocks for
// its outcome, and a harness submits every cell of a factorial grid before
// collecting any of them — so the pool sees the entire plan at once and
// keeps every host core saturated until the last job drains. Min-heap
// measurements are asynchronous too (SubmitMinHeap), forming the
// prerequisite layer of a plan's job DAG: each is a sequential
// exponential-then-bisection search whose probes are ordinary engine jobs,
// and grid cells are submitted, in grid order, the moment their anchor's
// final bound resolves.
//
// Three layers make plans incremental and resumable:
//
//   - deduplication: submissions of a job identical to one already in
//     flight coalesce onto the single execution, from the moment it is
//     submitted to the moment its outcome resolves (min-heap probes shared
//     by several sweeps run once, as an upstream job in the plan's graph);
//   - memoization: an optional in-process memo returns completed outcomes
//     without re-execution;
//   - the content-addressed result cache (Cache, layered on
//     internal/persist schema v2): completed invocations survive process
//     death, so a killed or re-invoked plan skips straight to its first
//     unfinished job, and figures re-render offline from cached results.
//
// Concurrency layout: each job kind (invocation, generic, min-heap) has one
// single-flight table mapping a key to its call, which is in flight until
// it resolves and, when kept, the memo after; each table and the pool's task
// queue sit behind one mutex apiece. Jobs take milliseconds and a suite plan
// submits a few hundred a second, so those locks are held for a vanishing
// share of the time. Each executing job's telemetry is buffered in a
// worker-owned buffer flushed to the shared sink in one batch at the job
// boundary, and cache writes are handed to a write-behind goroutine, so no
// per-event path takes an engine-wide lock.
//
// The engine emits structured progress events (queued, started, finished,
// cache-hit, with wall and task-clock telemetry) through an observer — the
// observability seam consumed by runbms -progress.
package exper

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chopin/internal/obs"
	"chopin/internal/persist"
	"chopin/internal/workload"
)

// Options configures an engine.
type Options struct {
	// Workers sizes the shared worker pool (default: NumCPU). This bounds
	// concurrent simulator invocations for the whole plan, however many
	// sweeps submit jobs at once.
	Workers int
	// Cache is the persistent result store; nil disables persistence
	// (in-flight deduplication still applies).
	Cache *Cache
	// Memoize keeps completed outcomes in memory, so repeated identical
	// jobs within one process return instantly even without a Cache. Off
	// by default: a full-suite sweep holds gigabytes of event logs.
	Memoize bool
	// Observer receives progress events; it must be safe for concurrent
	// use (Progress is). nil disables events.
	Observer func(Event)
	// Recorder receives structured telemetry (job lifecycle, cache
	// accounting, and — injected per job — the run's GC and scheduler
	// events, stamped with the job key). nil disables telemetry.
	Recorder obs.Recorder

	// runFn replaces the simulator entry point in tests (execution
	// counting, fault injection); nil means workload.Run.
	runFn func(*workload.Descriptor, workload.RunConfig) (*workload.Result, error)
}

// ErrEngineClosed resolves min-heap probe jobs that were submitted while
// the engine was shutting down: instead of executing inline in the
// submitter — the contract for ordinary jobs — a cancellable probe's ticket
// fails with this error, nothing is simulated, and nothing is written to
// the cache. Min-heap searches abort on it, so a Close racing an in-flight
// search never persists a partial result.
var ErrEngineClosed = errors.New("exper: engine closed")

// call is one single-flight execution, shared by every ticket deduplicated
// onto it. val and err are written before done closes and read only after.
type call[T any] struct {
	done chan struct{}
	val  T
	err  error
}

func (c *call[T]) wait() (T, error) {
	<-c.done
	return c.val, c.err
}

// joined says how a submission joined its key's single flight.
type joined int

const (
	lead   joined = iota // a new call: the submitter runs it and settles it
	shared               // an in-flight call the submitter waits on
	memo                 // a resolved call kept in the table
)

// table is one job kind's single-flight state: each key maps to its call,
// which is in flight until settled and, if kept, the memo after.
type table[T any] struct {
	mu    sync.Mutex
	calls map[Key]*call[T]
}

// join returns k's call and how the submission joined it.
func (t *table[T]) join(k Key) (*call[T], joined) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.calls[k]; ok {
		select {
		case <-c.done:
			return c, memo
		default:
			return c, shared
		}
	}
	if t.calls == nil {
		t.calls = map[Key]*call[T]{}
	}
	c := &call[T]{done: make(chan struct{})}
	t.calls[k] = c
	return c, lead
}

// settle resolves k's call under the table lock, so a later join sees it
// either in flight or resolved, and keeps it as the memo or drops it.
func (t *table[T]) settle(k Key, c *call[T], val T, err error, keep bool) {
	t.mu.Lock()
	c.val, c.err = val, err
	close(c.done)
	if !keep {
		delete(t.calls, k)
	}
	t.mu.Unlock()
}

// Engine executes jobs. One engine should be shared across everything a
// process runs — commands build one and pass it down via harness.Options.
type Engine struct {
	pool    *pool
	cache   *Cache
	memoize bool
	obs     func(Event)
	rec     obs.Recorder
	closing atomic.Bool // set before the pool closes; gates cancellation
	runFn   func(*workload.Descriptor, workload.RunConfig) (*workload.Result, error)

	// One single-flight table per job kind, so key kinds never alias.
	invocations table[*workload.Result]
	generics    table[[]byte]
	minHeaps    table[float64]
	bufs        sync.Pool // *jobRecorder, reused across job executions

	executed         int64
	cacheHits        int64
	memoHits         int64
	deduped          int64
	ooms             int64
	failures         int64
	minHeapSearches  int64
	minHeapCacheHits int64
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Executed counts simulator invocations actually run — the number the
	// cache exists to drive to zero on a warm re-run.
	Executed int64
	// CacheHits counts jobs satisfied from a persistent cache record that
	// predates the run; MemoHits from the in-process memo; Deduped jobs
	// that repeat one the run already ran or served, whether coalesced onto
	// its in-flight execution or served its record. Each is a function of
	// the plan, not of which submitter wins a race.
	CacheHits int64
	MemoHits  int64
	Deduped   int64
	// OOMs counts invocations that ran out of memory (a cacheable,
	// expected outcome at tight heaps); Failures counts other errors.
	OOMs     int64
	Failures int64
	// MinHeapSearches counts full minimum-heap measurements performed;
	// MinHeapCacheHits counts measurements satisfied from the cache.
	MinHeapSearches  int64
	MinHeapCacheHits int64
}

// Ticket is a handle to a submitted job. Wait blocks until the job's
// outcome is available; any number of tickets may share one execution.
type Ticket struct {
	job Job
	c   *call[*workload.Result]
}

// Wait blocks until the job completes and returns its outcome.
func (t *Ticket) Wait() (*workload.Result, error) { return t.c.wait() }

// Key returns the canonical content hash of the submitted job.
func (t *Ticket) Key() Key { return t.job.Key() }

// New builds an engine and starts its worker pool.
func New(opt Options) *Engine {
	if opt.Workers <= 0 {
		opt.Workers = runtime.NumCPU()
	}
	e := &Engine{
		pool:    newPool(opt.Workers),
		cache:   opt.Cache,
		memoize: opt.Memoize,
		obs:     opt.Observer,
		rec:     obs.Or(opt.Recorder),
		runFn:   opt.runFn,
	}
	if e.runFn == nil {
		e.runFn = workload.Run
	}
	e.bufs.New = func() any { return &jobRecorder{} }
	return e
}

// Close stops the worker pool once submitted jobs drain, emits the pool's
// scheduler telemetry, then flushes the write-behind result cache,
// returning its first write error. Submitting to a closed engine does not
// panic: an ordinary job executes inline in the caller, while min-heap
// probes racing Close resolve with ErrEngineClosed. Long-lived engines need
// never close, but commands should, so queued cache writes reach disk.
func (e *Engine) Close() error {
	e.closing.Store(true)
	e.pool.close()
	e.recordSched()
	if e.cache != nil {
		return e.cache.Flush()
	}
	return nil
}

// recordSched emits one KindSchedWorker event per pool worker — the
// scheduler-utilization summary obsreport -sched renders. Each carries the
// shared queue's high-water depth. Called after the pool drains, so the
// totals are quiescent.
func (e *Engine) recordSched() {
	if !e.rec.Enabled() {
		return
	}
	now := time.Now().UnixNano()
	stats, queueMax := e.pool.workerStats()
	for i, ws := range stats {
		e.rec.Record(obs.Event{
			Kind:     obs.KindSchedWorker,
			TNS:      now,
			Value:    float64(i),
			BusyNS:   float64(ws.busyNS),
			ParkNS:   float64(ws.parkNS),
			Tasks:    float64(ws.tasks),
			QueueMax: float64(queueMax),
		})
	}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Executed:         atomic.LoadInt64(&e.executed),
		CacheHits:        atomic.LoadInt64(&e.cacheHits),
		MemoHits:         atomic.LoadInt64(&e.memoHits),
		Deduped:          atomic.LoadInt64(&e.deduped),
		OOMs:             atomic.LoadInt64(&e.ooms),
		Failures:         atomic.LoadInt64(&e.failures),
		MinHeapSearches:  atomic.LoadInt64(&e.minHeapSearches),
		MinHeapCacheHits: atomic.LoadInt64(&e.minHeapCacheHits),
	}
}

func (e *Engine) emit(ev Event) {
	if e.obs != nil {
		e.obs(ev)
	}
}

// jobInfo is a job's identity as both event streams report it. Generic jobs
// carry their kind as the benchmark and no collector, heap or seed; a
// min-heap measurement carries its bound, once known, as the heap.
type jobInfo struct {
	key       Key
	benchmark string
	collector string
	heapMB    float64
	seed      uint64
}

func (j Job) info() jobInfo {
	return jobInfo{j.key, j.Desc.Name, j.Cfg.Collector.String(), j.Cfg.HeapMB, j.Cfg.Seed}
}

func (id jobInfo) event(kind EventKind) Event {
	return Event{Kind: kind, Key: id.key, Benchmark: id.benchmark, Collector: id.collector,
		HeapMB: id.heapMB, Seed: id.seed}
}

// failed is the JobFailed event for a job that ended with err.
func (id jobInfo) failed(err error) Event {
	ev := id.event(JobFailed)
	ev.Err = err.Error()
	return ev
}

// recordJob emits an engine-level telemetry event stamped with job identity.
// Engine events carry host wall-clock timestamps (jobs have no shared virtual
// clock); Value is the job's heap size in MB.
func (e *Engine) recordJob(kind obs.Kind, id jobInfo, dur, cpu float64, err error) {
	if !e.rec.Enabled() {
		return
	}
	ev := obs.Event{
		Kind:      kind,
		TNS:       time.Now().UnixNano(),
		Run:       string(id.key),
		Benchmark: id.benchmark,
		Collector: id.collector,
		DurNS:     dur,
		CPUNS:     cpu,
		Value:     id.heapMB,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	e.rec.Record(ev)
}

// Submit registers one invocation of the benchmark under cfg as an engine
// job and returns immediately with a ticket for its outcome. The job is
// deduplicated against identical in-flight submissions (single-flight: a
// second Submit for the same key shares the first's execution, from
// submission to resolution), satisfied from the in-process memo when warm,
// and otherwise enqueued on the shared worker pool, where the executing
// worker checks the persistent cache before touching the simulator.
// Submit whole sweeps up front and Wait in output order: the pool sees the
// entire batch at once, and merged results are deterministic because
// collection order is the caller's, not the scheduler's.
func (e *Engine) Submit(d *workload.Descriptor, cfg workload.RunConfig) (*Ticket, error) {
	job, err := NewJob(d, cfg)
	if err != nil {
		return nil, err
	}
	return e.submitJob(job, false), nil
}

// Run executes one invocation synchronously: Submit plus Wait. Use Submit
// directly to batch jobs; Run remains the entry point for sequential
// callers (nominal characterization).
func (e *Engine) Run(d *workload.Descriptor, cfg workload.RunConfig) (*workload.Result, error) {
	t, err := e.Submit(d, cfg)
	if err != nil {
		return nil, err
	}
	return t.Wait()
}

// submitJob submits an invocation job. cancelOnClose marks a min-heap
// probe: refused by a closing pool, it resolves with ErrEngineClosed
// instead of executing inline.
func (e *Engine) submitJob(job Job, cancelOnClose bool) *Ticket {
	c := submit(e, &e.invocations, job.info(), cancelOnClose, cacheable,
		func() (*workload.Result, error) { return e.execute(job) })
	return &Ticket{job: job, c: c}
}

// submit joins id's single flight in t. A memo hit or an in-flight call is
// shared as is; a leading submission queues exec on the pool and settles
// its outcome, kept as the memo when memoizing and keep accepts the error.
func submit[T any](e *Engine, t *table[T], id jobInfo, cancelOnClose bool, keep func(error) bool, exec func() (T, error)) *call[T] {
	c, j := t.join(id.key)
	switch j {
	case memo:
		atomic.AddInt64(&e.memoHits, 1)
		return c
	case shared:
		atomic.AddInt64(&e.deduped, 1)
		return c
	}
	e.emit(id.event(JobQueued))
	run := func() {
		val, err := exec()
		t.settle(id.key, c, val, err, e.memoize && keep(err))
	}
	if !e.pool.submit(run) {
		if cancelOnClose && e.closing.Load() {
			// Probe racing Close: cancel instead of running it inline —
			// nothing is simulated, nothing reaches the cache, and every
			// ticket deduplicated onto this call sees the cancellation.
			var zero T
			t.settle(id.key, c, zero, ErrEngineClosed, false)
			e.emit(id.failed(ErrEngineClosed))
			return c
		}
		// The pool lost a shutdown race: execute inline in the submitter
		// rather than panicking or dropping the job.
		run()
	}
	return c
}

// cacheable reports whether err leaves a stable property of the job
// (success or OOM) rather than a transient failure.
func cacheable(err error) bool {
	if err == nil {
		return true
	}
	var oom *workload.ErrOutOfMemory
	return errors.As(err, &oom)
}

// runJob is the bracket around one executed job's work, on the worker (or
// inline in the submitter after Close): it lends the work a pooled
// jobRecorder when base consumes telemetry, emits the started and finish
// points, counts the execution and flushes the buffer to base. work returns
// the job's task-clock total and error.
func (e *Engine) runJob(id jobInfo, base obs.Recorder, work func(rec obs.Recorder) (cpu float64, err error)) error {
	rec := obs.Nop
	var buf *jobRecorder
	if base.Enabled() {
		buf = e.bufs.Get().(*jobRecorder)
		buf.reset(string(id.key), id.benchmark, id.collector)
		rec = buf
	}

	e.emit(id.event(JobStarted))
	e.recordJob(obs.KindJobStart, id, 0, 0, nil)
	hostStart := time.Now()
	cpu, err := work(rec)
	atomic.AddInt64(&e.executed, 1)

	if buf != nil {
		obs.RecordAll(base, buf.events)
		e.bufs.Put(buf)
	}
	e.recordJob(obs.KindJobFinish, id, float64(time.Since(hostStart)), cpu, err)
	return err
}

// execute satisfies an invocation from the cache or runs it, entirely on
// the calling (worker) goroutine.
func (e *Engine) execute(job Job) (*workload.Result, error) {
	id := job.info()
	if e.cache != nil {
		if rec, src := e.cache.getInvocation(job); src != missed {
			e.countHit(src, &e.cacheHits)
			e.emit(id.event(JobCacheHit))
			e.recordJob(obs.KindCacheHit, id, 0, 0, nil)
			if rec.OOM {
				return nil, &workload.ErrOutOfMemory{
					Workload: job.Desc.Name, HeapMB: job.Cfg.HeapMB, Kind: job.Cfg.Collector,
				}
			}
			return rec.Result, nil
		}
		e.recordJob(obs.KindCacheMiss, id, 0, 0, nil)
	}

	// A recorder already set on the config, or else the engine's, receives
	// the run's events.
	base := obs.Or(job.Cfg.Recorder)
	if !base.Enabled() {
		base = e.rec
	}
	var res *workload.Result
	err := e.runJob(id, base, func(rec obs.Recorder) (float64, error) {
		cfg := job.Cfg
		if rec.Enabled() {
			cfg.Recorder = rec
		}
		var err error
		if res, err = e.runFn(job.Desc, cfg); err != nil {
			return 0, err
		}
		// A Result carries no recorder: the run's may be a pooled buffer
		// the next job reuses, and a Result served from the cache has none.
		res.Config.Recorder = nil
		_, cpu := totals(res)
		return cpu, nil
	})

	if err != nil {
		var oom *workload.ErrOutOfMemory
		if errors.As(err, &oom) {
			atomic.AddInt64(&e.ooms, 1)
			if e.cache != nil {
				e.cache.putInvocation(id.key, &persist.InvocationRecord{Key: string(id.key), OOM: true})
			}
		} else {
			atomic.AddInt64(&e.failures, 1)
		}
		e.emit(id.failed(err))
		return nil, err
	}

	if e.cache != nil {
		e.cache.putInvocation(id.key, &persist.InvocationRecord{Key: string(id.key), Result: res})
	}
	ev := id.event(JobFinished)
	ev.WallNS, ev.CPUNS = totals(res)
	e.emit(ev)
	return res, nil
}

// countHit counts a cache hit in hits, or, when src is a record this run
// already wrote or served, as a Deduped repeat: whether a repeated job meets
// its first execution in flight or its record depends only on timing.
func (e *Engine) countHit(src source, hits *int64) {
	if src == repeated {
		hits = &e.deduped
	}
	atomic.AddInt64(hits, 1)
}

// totals sums a result's wall and task-clock time over its iterations.
func totals(res *workload.Result) (wall, cpu float64) {
	for _, it := range res.Iterations {
		wall += it.WallNS
		cpu += it.CPUNS
	}
	return wall, cpu
}
