// Package exper is the unified experiment engine: every simulator
// invocation — sweep cell, latency run, min-heap probe — becomes a
// first-class Job, canonically hashed over its (descriptor, RunConfig)
// content and executed by a single work-stealing worker pool shared across
// an entire experiment plan.
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
// Concurrency layout: the engine's job state (in-flight calls, memo) is
// sharded by key across independently locked shards, the pool's deques are
// per-worker behind per-deque locks, each executing job's telemetry is
// buffered in a worker-owned buffer flushed to the shared sink in one batch
// at the job boundary, and cache writes are handed to a write-behind
// goroutine — so at full host-core saturation no per-event or per-transition
// path crosses a pool-wide lock.
//
// The engine emits structured progress events (queued, started, finished,
// cache-hit, with wall and task-clock telemetry) through an observer — the
// observability seam consumed by runbms -progress.
package exper

import (
	"errors"
	"fmt"
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
	// TraceDir, when non-empty, captures each executed job's telemetry in
	// memory and writes it as Chrome trace-event JSON to
	// <TraceDir>/<key>.trace.json — one causal timeline per invocation,
	// loadable in Perfetto. Cache hits write nothing (they did not run).
	TraceDir string

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

// numShards is the engine's lock-shard count for job state. Keys are
// uniformly distributed SHA-256 hashes, so 32 shards keep the per-shard
// collision probability negligible at any realistic worker count.
const numShards = 32

// engineShard is one independently locked slice of the engine's job state.
// Sharding by key keeps a whole-suite batch — thousands of submissions and
// completions — from funnelling through one engine-wide mutex.
type engineShard struct {
	mu        sync.Mutex
	inflight  map[Key]*call
	memo      map[Key]outcome
	minflight map[Key]*MinHeapTicket
	minMemo   map[Key]float64
	// Generic-job state (SubmitGeneric): opaque-payload jobs share the same
	// single-flight/memo discipline as invocations, in separate maps so key
	// kinds can never alias.
	geninflight map[Key]*genCall
	genMemo     map[Key]genOutcome
}

// Engine executes jobs. One engine should be shared across everything a
// process runs — commands build one and pass it down via harness.Options.
type Engine struct {
	pool     *pool
	cache    *Cache
	memoize  bool
	obs      func(Event)
	rec      obs.Recorder
	traceDir string
	closing  atomic.Bool // set before the pool closes; gates cancellation
	runFn    func(*workload.Descriptor, workload.RunConfig) (*workload.Result, error)

	shards [numShards]engineShard
	bufs   sync.Pool // *jobRecorder, reused across job executions

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
	// CacheHits counts jobs satisfied from the persistent cache; MemoHits
	// from the in-process memo; Deduped jobs coalesced onto an identical
	// in-flight execution.
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

type outcome struct {
	res *workload.Result
	err error
}

// call is one in-flight execution, shared by every ticket deduplicated onto
// it. out is written before done closes and read only after it.
type call struct {
	done chan struct{}
	out  outcome
}

// resolvedCall wraps an already-known outcome as a completed call, so memo
// hits hand out tickets indistinguishable from executed ones.
func resolvedCall(out outcome) *call {
	c := &call{done: make(chan struct{}), out: out}
	close(c.done)
	return c
}

// Ticket is a handle to a submitted job. Wait blocks until the job's
// outcome is available; any number of tickets may share one execution.
type Ticket struct {
	job Job
	c   *call
}

// Wait blocks until the job completes and returns its outcome.
func (t *Ticket) Wait() (*workload.Result, error) {
	<-t.c.done
	return t.c.out.res, t.c.out.err
}

// Key returns the canonical content hash of the submitted job.
func (t *Ticket) Key() Key { return t.job.Key() }

// New builds an engine and starts its worker pool.
func New(opt Options) *Engine {
	if opt.Workers <= 0 {
		opt.Workers = runtime.NumCPU()
	}
	e := &Engine{
		pool:     newPool(opt.Workers),
		cache:    opt.Cache,
		memoize:  opt.Memoize,
		obs:      opt.Observer,
		rec:      obs.Or(opt.Recorder),
		traceDir: opt.TraceDir,
		runFn:    opt.runFn,
	}
	if e.runFn == nil {
		e.runFn = workload.Run
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.inflight = map[Key]*call{}
		sh.memo = map[Key]outcome{}
		sh.minflight = map[Key]*MinHeapTicket{}
		sh.minMemo = map[Key]float64{}
		sh.geninflight = map[Key]*genCall{}
		sh.genMemo = map[Key]genOutcome{}
	}
	e.bufs.New = func() any { return &jobRecorder{} }
	return e
}

// shard maps a key to its lock shard. Keys are hex SHA-256, so the first
// two characters are uniformly distributed over [0, 256).
func (e *Engine) shard(k Key) *engineShard {
	if len(k) < 2 {
		return &e.shards[0]
	}
	return &e.shards[(hexVal(k[0])<<4|hexVal(k[1]))%numShards]
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	}
	return 0
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
// scheduler-utilization summary obsreport -sched renders. Called after the
// pool drains, so the totals are quiescent.
func (e *Engine) recordSched() {
	if !e.rec.Enabled() {
		return
	}
	now := time.Now().UnixNano()
	for _, ws := range e.pool.workerStats() {
		e.rec.Record(obs.Event{
			Kind:     obs.KindSchedWorker,
			TNS:      now,
			Value:    float64(ws.Worker),
			BusyNS:   float64(ws.BusyNS),
			StealNS:  float64(ws.StealNS),
			ParkNS:   float64(ws.ParkNS),
			Tasks:    float64(ws.Tasks),
			Steals:   float64(ws.Steals),
			QueueMax: float64(ws.QueueMax),
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

// recordJob emits an engine-level telemetry event stamped with job identity.
// Engine events carry host wall-clock timestamps (jobs have no shared virtual
// clock); Value is the job's heap size in MB.
func (e *Engine) recordJob(kind obs.Kind, j Job, k Key, dur, cpu float64, errStr string) {
	if !e.rec.Enabled() {
		return
	}
	e.rec.Record(obs.Event{
		Kind:      kind,
		TNS:       time.Now().UnixNano(),
		Run:       string(k),
		Benchmark: j.Desc.Name,
		Collector: j.Cfg.Collector.String(),
		DurNS:     dur,
		CPUNS:     cpu,
		Value:     j.Cfg.HeapMB,
		Err:       errStr,
	})
}

func jobEvent(kind EventKind, j Job) Event {
	return Event{
		Kind:      kind,
		Key:       j.Key(),
		Benchmark: j.Desc.Name,
		Collector: j.Cfg.Collector.String(),
		HeapMB:    j.Cfg.HeapMB,
		Seed:      j.Cfg.Seed,
	}
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
	return e.submitJob(job, submitFlags{}), nil
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

// submitFlags qualifies a submission. cancelOnClose marks a min-heap
// probe: refused by a closing pool, it resolves with ErrEngineClosed
// instead of executing inline.
type submitFlags struct {
	cancelOnClose bool
}

func (e *Engine) submitJob(job Job, fl submitFlags) *Ticket {
	k := job.Key()
	sh := e.shard(k)
	sh.mu.Lock()
	if out, ok := sh.memo[k]; ok {
		sh.mu.Unlock()
		atomic.AddInt64(&e.memoHits, 1)
		return &Ticket{job: job, c: resolvedCall(out)}
	}
	if c, ok := sh.inflight[k]; ok {
		sh.mu.Unlock()
		atomic.AddInt64(&e.deduped, 1)
		return &Ticket{job: job, c: c}
	}
	c := &call{done: make(chan struct{})}
	sh.inflight[k] = c
	sh.mu.Unlock()

	e.emit(jobEvent(JobQueued, job))
	if !e.pool.submit(func() { e.runJob(job, c) }) {
		if fl.cancelOnClose && e.closing.Load() {
			// Probe racing Close: cancel instead of running it inline —
			// nothing is simulated, nothing reaches the cache, and every
			// ticket deduplicated onto this call sees the cancellation.
			sh.mu.Lock()
			delete(sh.inflight, k)
			sh.mu.Unlock()
			c.out = outcome{nil, ErrEngineClosed}
			close(c.done)
			ev := jobEvent(JobFailed, job)
			ev.Err = ErrEngineClosed.Error()
			e.emit(ev)
			return &Ticket{job: job, c: c}
		}
		// The pool lost a shutdown race: execute inline in the submitter
		// rather than panicking or dropping the job.
		e.runJob(job, c)
	}
	return &Ticket{job: job, c: c}
}

// runJob executes the single flight for a registered call and resolves it.
// Runs on a pool worker (or inline in the submitter after Close).
func (e *Engine) runJob(job Job, c *call) {
	out := e.execute(job)

	k := job.Key()
	sh := e.shard(k)
	sh.mu.Lock()
	delete(sh.inflight, k)
	if e.memoize && cacheable(out) {
		sh.memo[k] = out
	}
	sh.mu.Unlock()
	c.out = out
	close(c.done)
}

// cacheable reports whether the outcome is a stable property of the job
// (success or OOM) rather than a transient failure.
func cacheable(out outcome) bool {
	if out.err == nil {
		return true
	}
	var oom *workload.ErrOutOfMemory
	return errors.As(out.err, &oom)
}

// execute satisfies a job from the cache or runs it, entirely on the
// calling (worker) goroutine.
func (e *Engine) execute(job Job) outcome {
	k := job.Key()
	if e.cache != nil {
		if rec, ok := e.cache.getInvocation(k); ok {
			atomic.AddInt64(&e.cacheHits, 1)
			e.emit(jobEvent(JobCacheHit, job))
			e.recordJob(obs.KindCacheHit, job, k, 0, 0, "")
			if rec.OOM {
				return outcome{nil, &workload.ErrOutOfMemory{
					Workload: job.Desc.Name, HeapMB: job.Cfg.HeapMB, Kind: job.Cfg.Collector,
				}}
			}
			return outcome{rec.Result, nil}
		}
		e.recordJob(obs.KindCacheMiss, job, k, 0, 0, "")
	}

	// Telemetry for the run goes into a worker-owned per-job buffer — a
	// recorder already set on the config, or the engine's, receives the
	// whole run's events in one batch at the job boundary, so concurrent
	// invocations never contend the shared sink per event. A simulator run
	// records from exactly one goroutine, so the buffer needs no lock.
	base := obs.Or(job.Cfg.Recorder)
	if !base.Enabled() {
		base = e.rec
	}
	var buf *jobRecorder
	if base.Enabled() || e.traceDir != "" {
		buf = e.bufs.Get().(*jobRecorder)
		buf.reset(string(k), job.Desc.Name, job.Cfg.Collector.String())
		job.Cfg.Recorder = buf
	}

	e.emit(jobEvent(JobStarted, job))
	e.recordJob(obs.KindJobStart, job, k, 0, 0, "")
	hostStart := time.Now()
	res, err := e.runFn(job.Desc, job.Cfg)
	atomic.AddInt64(&e.executed, 1)
	out := outcome{res, err}

	if buf != nil {
		obs.RecordAll(base, buf.events)
		if e.traceDir != "" {
			if werr := e.writeJobTrace(k, buf.events); werr != nil && out.err == nil {
				out = outcome{nil, fmt.Errorf("exper: writing %s trace: %w", job.Desc.Name, werr)}
			}
		}
		e.bufs.Put(buf)
	}

	if err != nil {
		e.recordJob(obs.KindJobFinish, job, k, float64(time.Since(hostStart)), 0, err.Error())
	} else {
		var cpu float64
		for _, it := range res.Iterations {
			cpu += it.CPUNS
		}
		e.recordJob(obs.KindJobFinish, job, k, float64(time.Since(hostStart)), cpu, "")
	}

	if out.err != nil {
		var oom *workload.ErrOutOfMemory
		if errors.As(out.err, &oom) {
			atomic.AddInt64(&e.ooms, 1)
			if e.cache != nil {
				e.cache.putInvocation(k, e.record(job, nil, true))
			}
		} else {
			atomic.AddInt64(&e.failures, 1)
		}
		ev := jobEvent(JobFailed, job)
		ev.Err = out.err.Error()
		e.emit(ev)
		return out
	}

	if e.cache != nil {
		e.cache.putInvocation(k, e.record(job, out.res, false))
	}
	ev := jobEvent(JobFinished, job)
	for _, it := range out.res.Iterations {
		ev.WallNS += it.WallNS
		ev.CPUNS += it.CPUNS
	}
	e.emit(ev)
	return out
}

func (e *Engine) record(job Job, res *workload.Result, oom bool) *persist.InvocationRecord {
	return &persist.InvocationRecord{
		Key:       string(job.Key()),
		Workload:  job.Desc.Name,
		Collector: job.Cfg.Collector.String(),
		HeapMB:    job.Cfg.HeapMB,
		Seed:      job.Cfg.Seed,
		OOM:       oom,
		Result:    res,
	}
}
