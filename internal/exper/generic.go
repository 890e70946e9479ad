package exper

import (
	"encoding/json"
	"sync/atomic"

	"chopin/internal/obs"
	"chopin/internal/persist"
)

// Generic jobs: arbitrary cacheable computations under the engine's
// machinery. Subsystems above workload.Run — fleet sweep cells, future
// composite experiments — need the same single-flight deduplication,
// persistent caching, pooled execution and telemetry the invocation path
// has, but their results are not workload.Results. A generic
// job is keyed by the content hash of a caller-supplied parameter payload
// and resolves to an opaque JSON blob the caller owns both sides of.
//
// The contract: the run function must be a pure function of the payload
// (that is what makes the cache sound), its result must be stable across
// processes, and errors are treated as transient — never cached, so a
// failed cell re-runs on the next attempt. Callers whose domain has
// cacheable failure outcomes (a fleet replica OOMing is a stable property
// of the cell) encode them inside the returned payload.

// GenericTicket is a handle to a submitted generic job.
type GenericTicket struct {
	key Key
	c   *call[[]byte]
}

// Wait blocks until the job completes and returns its payload.
func (t *GenericTicket) Wait() ([]byte, error) { return t.c.wait() }

// Key returns the job's canonical content hash.
func (t *GenericTicket) Key() Key { return t.key }

// genericKey computes the canonical content hash of a generic job: the
// schema version, the namespaced job kind, and the caller's parameter
// payload in canonical JSON. Payloads must marshal deterministically (no
// maps with more than one key ordering — struct types do).
func genericKey(kind string, payload any) (Key, error) {
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
// execution; completed ones are satisfied from the persistent cache.
func (e *Engine) SubmitGeneric(kind string, payload any, run func(rec obs.Recorder) ([]byte, error)) (*GenericTicket, error) {
	k, err := genericKey(kind, payload)
	if err != nil {
		return nil, err
	}
	id := jobInfo{key: k, benchmark: kind}
	c := submit(e, &e.generics, id, false, func() ([]byte, error) { return e.executeGeneric(&id, run) })
	return &GenericTicket{key: k, c: c}, nil
}

// executeGeneric satisfies a generic job from the cache or runs it, on the
// calling (worker) goroutine.
func (e *Engine) executeGeneric(id *jobInfo, run func(rec obs.Recorder) ([]byte, error)) ([]byte, error) {
	if e.cache != nil {
		if rec, src := e.cache.getGeneric(id.key); src != missed {
			e.countHit(src, &e.cacheHits)
			e.emit(id.event(JobCacheHit))
			e.recordJob(obs.KindCacheHit, id, 0, 0, nil)
			return []byte(rec.Data), nil
		}
		e.recordJob(obs.KindCacheMiss, id, 0, 0, nil)
	}

	var data []byte
	err := e.runJob(id, func(rec obs.Recorder) (float64, error) {
		var err error
		data, err = run(rec)
		return 0, err
	})
	if err != nil {
		atomic.AddInt64(&e.failures, 1)
		e.emit(id.failed(err))
		return nil, err
	}
	if e.cache != nil {
		e.cache.putGeneric(id.key, &persist.GenericRecord{
			Key: string(id.key), Kind: id.benchmark, Data: json.RawMessage(data),
		})
	}
	e.emit(id.event(JobFinished))
	return data, nil
}
