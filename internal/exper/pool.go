package exper

import (
	"slices"
	"sync"
	"time"
)

// pool is the engine's worker pool: one LIFO stack of tasks behind one mutex,
// drained by a fixed set of workers that wait on one condition variable while
// it is empty. Jobs run for milliseconds and a whole-suite plan submits a few
// hundred per second, so the single lock is never contended enough to matter.
// LIFO runs the freshest task first: a min-heap probe submitted on an
// anchor's chain goes ahead of the grid cells already queued.
type pool struct {
	mu       sync.Mutex
	ready    *sync.Cond // signalled by submit and close
	tasks    []func()
	queueMax int // high-water depth of tasks
	closed   bool
	stats    []workerStat

	wg sync.WaitGroup
}

// workerStat is one worker's lifetime scheduling accounting, written by the
// worker under the pool's mutex: time running tasks, time waiting for one,
// and tasks executed.
type workerStat struct {
	busyNS int64
	parkNS int64
	tasks  int64
}

func newPool(workers int) *pool {
	if workers < 1 {
		workers = 1
	}
	p := &pool{stats: make([]workerStat, workers)}
	p.ready = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := range p.stats {
		go p.worker(&p.stats[i])
	}
	return p
}

// submit enqueues one task without blocking and reports whether the pool
// accepted it. A closed pool refuses it; the caller then runs the task inline
// (or cancels it, for min-heap probes). close sets the flag under the same
// lock, so a task accepted here is always drained by a worker.
func (p *pool) submit(task func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.tasks = append(p.tasks, task)
	p.queueMax = max(p.queueMax, len(p.tasks))
	p.ready.Signal()
	return true
}

// worker runs the newest task until the pool is closed and drained. The lock
// is released only while a task runs.
func (p *pool) worker(st *workerStat) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		start := time.Now()
		for len(p.tasks) == 0 && !p.closed {
			p.ready.Wait()
		}
		st.parkNS += time.Since(start).Nanoseconds()
		n := len(p.tasks)
		if n == 0 {
			p.mu.Unlock()
			return
		}
		task := p.tasks[n-1]
		p.tasks[n-1] = nil
		p.tasks = p.tasks[:n-1]
		p.mu.Unlock()

		start = time.Now()
		task()
		busy := time.Since(start).Nanoseconds()

		p.mu.Lock()
		st.busyNS += busy
		st.tasks++
	}
}

// workerStats snapshots every worker's accounting and the queue's high-water
// depth. Call after close for the lifetime totals.
func (p *pool) workerStats() ([]workerStat, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.stats), p.queueMax
}

// close stops the workers once the queue drains. Tasks already accepted still
// run; submissions that lose the race to close are refused (submit returns
// false) and execute inline at the caller — or resolve as cancelled when the
// submitter marked them cancellable.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.ready.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
