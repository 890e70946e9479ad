package main

import (
	"sync"
	"time"

	"chopin/internal/exper"
)

// jobLog stamps the engine's progress events with host time, for the queue,
// run and cache-hit latencies of a traced rep. It is the engine's
// Options.Observer and so must be safe for concurrent use.
type jobLog struct {
	mu       sync.Mutex
	queued   map[exper.Key]time.Time
	started  map[exper.Key]time.Time
	queueMS  []float64 // queued -> started
	runMS    []float64 // started -> finished or failed
	hitMS    []float64 // queued -> cache hit
	ends     []time.Time
	anchors  []time.Time // min-heap bounds resolved (measured or cached)
	last     []time.Time // every job event, for the collect tail
	nQueued  int64
	runTotal time.Duration
}

func newJobLog() *jobLog {
	return &jobLog{queued: map[exper.Key]time.Time{}, started: map[exper.Key]time.Time{}}
}

func (l *jobLog) observe(e exper.Event) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	switch e.Kind {
	case exper.JobQueued:
		l.nQueued++
		l.queued[e.Key] = now
	case exper.JobStarted:
		l.started[e.Key] = now
		if q, ok := l.queued[e.Key]; ok {
			l.queueMS = append(l.queueMS, ms(now.Sub(q)))
		}
	case exper.JobFinished, exper.JobFailed:
		if s, ok := l.started[e.Key]; ok {
			l.runMS = append(l.runMS, ms(now.Sub(s)))
			l.runTotal += now.Sub(s)
			delete(l.started, e.Key)
		}
		l.ends = append(l.ends, now)
	case exper.JobCacheHit:
		if q, ok := l.queued[e.Key]; ok {
			l.hitMS = append(l.hitMS, ms(now.Sub(q)))
		}
		l.ends = append(l.ends, now)
	case exper.MinHeapFinished, exper.MinHeapCacheHit:
		l.anchors = append(l.anchors, now)
		return
	default:
		return
	}
	l.last = append(l.last, now)
}

// lateJobs counts jobs that ended after t: work still running when the
// caller already had every result it asked for.
func (l *jobLog) lateJobs(t time.Time) int {
	n := 0
	for _, e := range l.ends {
		if e.After(t) {
			n++
		}
	}
	return n
}

// lastEventBefore returns the last job event at or before t (t itself when
// there is none).
func (l *jobLog) lastEventBefore(t time.Time) time.Time {
	best := time.Time{}
	for _, e := range l.last {
		if !e.After(t) && e.After(best) {
			best = e
		}
	}
	if best.IsZero() {
		return t
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
