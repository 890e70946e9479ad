package exper

import (
	"encoding/json"
	"sync/atomic"
	"time"

	"chopin/internal/obs"
	"chopin/internal/persist"
)

// Generic jobs: arbitrary cacheable computations under the engine's
// machinery. Subsystems above workload.Run — fleet sweep cells, future
// composite experiments — need the same single-flight deduplication,
// in-process memoization, persistent caching and pooled execution the
// invocation path has, but their results are not workload.Results. A generic
// job is keyed by the content hash of a caller-supplied parameter payload
// and resolves to an opaque JSON blob the caller owns both sides of.
//
// The contract: the run function must be a pure function of the payload
// (that is what makes the cache sound), its result must be stable across
// processes, and errors are treated as transient — never cached, so a
// failed cell re-runs on the next attempt. Callers whose domain has
// cacheable failure outcomes (a fleet replica OOMing is a stable property
// of the cell) encode them inside the returned payload.

// genOutcome is one generic job's resolution.
type genOutcome struct {
	data []byte
	err  error
}

// genCall is one in-flight generic execution, shared by deduplicated
// tickets. out is written before done closes and read only after it.
type genCall struct {
	done chan struct{}
	out  genOutcome
}

// GenericTicket is a handle to a submitted generic job.
type GenericTicket struct {
	key Key
	c   *genCall
}

// Wait blocks until the job completes and returns its payload.
func (t *GenericTicket) Wait() ([]byte, error) {
	<-t.c.done
	return t.c.out.data, t.c.out.err
}

// Key returns the job's canonical content hash.
func (t *GenericTicket) Key() Key { return t.key }

// GenericKey computes the canonical content hash of a generic job: the
// schema version, the namespaced job kind, and the caller's parameter
// payload in canonical JSON. Payloads must marshal deterministically (no
// maps with more than one key ordering — struct types do).
func GenericKey(kind string, payload any) (Key, error) {
	return hashPayload(struct {
		Schema  int    `json:"schema"`
		Kind    string `json:"kind"`
		Payload any    `json:"payload"`
	}{schemaVersion, "generic:" + kind, payload})
}

// SubmitGeneric registers a generic job and returns immediately with a
// ticket for its outcome. kind namespaces the job family (it participates
// in the key and labels progress events); payload is the job's complete
// parameter set; run computes the result, receiving a Recorder that buffers
// the job's telemetry for batch flush at the job boundary exactly like an
// invocation job's. Identical in-flight submissions coalesce onto one
// execution, completed ones are satisfied from the in-process memo (when
// enabled) or the persistent cache.
func (e *Engine) SubmitGeneric(kind string, payload any, run func(rec obs.Recorder) ([]byte, error)) (*GenericTicket, error) {
	k, err := GenericKey(kind, payload)
	if err != nil {
		return nil, err
	}
	sh := e.shard(k)
	sh.mu.Lock()
	if out, ok := sh.genMemo[k]; ok {
		sh.mu.Unlock()
		atomic.AddInt64(&e.memoHits, 1)
		c := &genCall{done: make(chan struct{}), out: out}
		close(c.done)
		return &GenericTicket{key: k, c: c}, nil
	}
	if c, ok := sh.geninflight[k]; ok {
		sh.mu.Unlock()
		atomic.AddInt64(&e.deduped, 1)
		return &GenericTicket{key: k, c: c}, nil
	}
	c := &genCall{done: make(chan struct{})}
	sh.geninflight[k] = c
	sh.mu.Unlock()

	e.emit(Event{Kind: JobQueued, Key: k, Benchmark: kind})
	if !e.pool.submit(func() { e.runGeneric(kind, k, c, run) }) {
		// Pool already closed: execute inline in the submitter, same
		// no-drop contract as ordinary jobs.
		e.runGeneric(kind, k, c, run)
	}
	return &GenericTicket{key: k, c: c}, nil
}

// RunGeneric executes one generic job synchronously: SubmitGeneric + Wait.
func (e *Engine) RunGeneric(kind string, payload any, run func(rec obs.Recorder) ([]byte, error)) ([]byte, error) {
	t, err := e.SubmitGeneric(kind, payload, run)
	if err != nil {
		return nil, err
	}
	return t.Wait()
}

// runGeneric is the single flight for a registered generic call.
func (e *Engine) runGeneric(kind string, k Key, c *genCall, run func(rec obs.Recorder) ([]byte, error)) {
	out := e.executeGeneric(kind, k, run)
	sh := e.shard(k)
	sh.mu.Lock()
	delete(sh.geninflight, k)
	if e.memoize && out.err == nil {
		sh.genMemo[k] = out
	}
	sh.mu.Unlock()
	c.out = out
	close(c.done)
}

// executeGeneric satisfies a generic job from the cache or runs it, on the
// calling (worker) goroutine.
func (e *Engine) executeGeneric(kind string, k Key, run func(rec obs.Recorder) ([]byte, error)) genOutcome {
	if e.cache != nil {
		if rec, ok := e.cache.getGeneric(k); ok {
			atomic.AddInt64(&e.cacheHits, 1)
			e.emit(Event{Kind: JobCacheHit, Key: k, Benchmark: kind})
			e.recordGeneric(obs.KindCacheHit, kind, k, 0, "")
			return genOutcome{data: []byte(rec.Data)}
		}
		e.recordGeneric(obs.KindCacheMiss, kind, k, 0, "")
	}

	// Telemetry buffering mirrors the invocation path: the run's events land
	// in a worker-owned buffer, flushed to the shared sink in one batch at
	// the job boundary.
	rec := obs.Recorder(obs.Nop)
	var buf *jobRecorder
	if e.rec.Enabled() || e.traceDir != "" {
		buf = e.bufs.Get().(*jobRecorder)
		buf.reset(string(k), kind, "")
		rec = buf
	}

	e.emit(Event{Kind: JobStarted, Key: k, Benchmark: kind})
	e.recordGeneric(obs.KindJobStart, kind, k, 0, "")
	hostStart := time.Now()
	data, err := run(rec)
	atomic.AddInt64(&e.executed, 1)

	if buf != nil {
		obs.RecordAll(e.rec, buf.events)
		if e.traceDir != "" {
			if werr := e.writeJobTrace(k, buf.events); werr != nil && err == nil {
				err = werr
			}
		}
		e.bufs.Put(buf)
	}

	if err != nil {
		atomic.AddInt64(&e.failures, 1)
		e.recordGeneric(obs.KindJobFinish, kind, k, float64(time.Since(hostStart)), err.Error())
		e.emit(Event{Kind: JobFailed, Key: k, Benchmark: kind, Err: err.Error()})
		return genOutcome{err: err}
	}
	e.recordGeneric(obs.KindJobFinish, kind, k, float64(time.Since(hostStart)), "")
	if e.cache != nil {
		e.cache.putGeneric(k, &persist.GenericRecord{
			Key: string(k), Kind: kind, Data: json.RawMessage(data),
		})
	}
	e.emit(Event{Kind: JobFinished, Key: k, Benchmark: kind})
	return genOutcome{data: data}
}

// recordGeneric emits an engine-level telemetry event for a generic job.
func (e *Engine) recordGeneric(kind obs.Kind, jobKind string, k Key, dur float64, errStr string) {
	if !e.rec.Enabled() {
		return
	}
	e.rec.Record(obs.Event{
		Kind:      kind,
		TNS:       time.Now().UnixNano(),
		Run:       string(k),
		Benchmark: jobKind,
		DurNS:     dur,
		Err:       errStr,
	})
}
