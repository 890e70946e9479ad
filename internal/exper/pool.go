package exper

import (
	"sync"
	"sync/atomic"
	"time"
)

// pool is the engine's work-stealing worker pool, sharded for whole-suite
// submission rates: each worker owns a deque behind its own mutex, so a
// batch of thousands of jobs submitted up front spreads across deques
// without funnelling every push and pop through one pool-wide lock (the
// pre-refactor design serialized `submit` and `take` on a single Mutex —
// measurable once every sweep cell is enqueued at once instead of trickling
// in from per-cell goroutines). Submissions are distributed round-robin by
// an atomic cursor; a worker pops its own deque LIFO (freshly submitted
// jobs have warm sweeps behind them) and steals FIFO from the most loaded
// peer when its own deque drains. Idle workers park on a single condition
// variable that is only touched when a worker actually runs dry, keeping
// the steady-state path lock-light.
type pool struct {
	deques []dequeShard
	stats  []workerStat
	cursor atomic.Uint64 // round-robin submission cursor
	idle   atomic.Int64  // workers inside the parking protocol

	parkMu sync.Mutex // guards closed and the parking condvar
	parked *sync.Cond
	closed bool

	wg sync.WaitGroup
}

// dequeShard is one worker's deque behind its own lock. The pad keeps
// neighbouring shards off one cache line, so workers pushing and popping
// concurrently do not false-share. depthMax is the deque's high-water depth.
type dequeShard struct {
	mu       sync.Mutex
	tasks    []func()
	depthMax int
	closed   bool
	_        [32]byte
}

// workerStat is one worker's lifetime scheduling accounting, written by the
// owning worker and read by stats snapshots. Task-grained updates (jobs are
// milliseconds) keep the atomics off any hot path.
type workerStat struct {
	busyNS  atomic.Int64 // executing tasks
	stealNS atomic.Int64 // scanning deques between tasks (awake, not running)
	parkNS  atomic.Int64 // blocked on the parking condvar
	tasks   atomic.Int64 // tasks executed
	steals  atomic.Int64 // tasks taken from a peer's deque
}

// WorkerStat is a snapshot of one pool worker's scheduling accounting,
// exposed for the engine's scheduler telemetry.
type WorkerStat struct {
	Worker  int
	BusyNS  int64
	StealNS int64
	ParkNS  int64
	Tasks   int64
	Steals  int64
	// QueueMax is the high-water depth of the worker's own deque.
	QueueMax int
}

func newPool(workers int) *pool {
	if workers < 1 {
		workers = 1
	}
	p := &pool{
		deques: make([]dequeShard, workers),
		stats:  make([]workerStat, workers),
	}
	p.parked = sync.NewCond(&p.parkMu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

// submit enqueues one task without blocking and reports whether the pool
// accepted it. It returns false — instead of panicking, which is what the
// pre-refactor pool did and what a Close racing a straggling sweep would
// hit — once the pool has been closed; the caller then runs the task inline
// (or cancels it, for min-heap probes). The shard's closed flag is set
// under the same lock that guards its deque, so a task accepted here is
// always still visible to the draining workers.
func (p *pool) submit(task func()) bool {
	w := int(p.cursor.Add(1)-1) % len(p.deques)
	dq := &p.deques[w]
	dq.mu.Lock()
	if dq.closed {
		dq.mu.Unlock()
		return false
	}
	dq.tasks = append(dq.tasks, task)
	if d := len(dq.tasks); d > dq.depthMax {
		dq.depthMax = d
	}
	dq.mu.Unlock()

	// Wake a parked worker only when one might exist: a worker increments
	// idle under parkMu *before* its final empty re-scan, so if idle reads 0
	// here, any worker that parks later re-scans after this push and finds
	// the task itself. The busy steady state therefore never touches the
	// pool-wide parking lock.
	if p.idle.Load() > 0 {
		p.parkMu.Lock()
		p.parked.Signal()
		p.parkMu.Unlock()
	}
	return true
}

// popOwn pops the back of the shard's deque.
func (dq *dequeShard) popOwn() (func(), bool) {
	n := len(dq.tasks)
	if n == 0 {
		return nil, false
	}
	t := dq.tasks[n-1]
	dq.tasks[n-1] = nil
	dq.tasks = dq.tasks[:n-1]
	return t, true
}

// stealFront pops the front of the shard's deque.
func (dq *dequeShard) stealFront() (func(), bool) {
	q := dq.tasks
	if len(q) == 0 {
		return nil, false
	}
	t := q[0]
	copy(q, q[1:])
	q[len(q)-1] = nil
	dq.tasks = q[:len(q)-1]
	return t, true
}

// tryTake pops the worker's own deque from the back, or steals from the
// front of the longest peer deque. It locks one shard at a time and never
// blocks; nil means every deque was empty at the moment it was scanned.
func (p *pool) tryTake(self int) func() {
	own := &p.deques[self]
	own.mu.Lock()
	if t, ok := own.popOwn(); ok {
		own.mu.Unlock()
		return t
	}
	own.mu.Unlock()

	// Steal scan: find the longest peer deque, then re-lock just that
	// shard. The length read is racy by design — a stale pick only costs
	// an extra scan, never correctness.
	victim, best := -1, 0
	for i := range p.deques {
		if i == self {
			continue
		}
		dq := &p.deques[i]
		dq.mu.Lock()
		if n := len(dq.tasks); n > best {
			victim, best = i, n
		}
		dq.mu.Unlock()
	}
	if victim < 0 {
		return nil
	}
	dq := &p.deques[victim]
	dq.mu.Lock()
	t, ok := dq.stealFront()
	dq.mu.Unlock()
	if !ok { // lost the race to another thief
		return nil
	}
	p.stats[self].steals.Add(1)
	return t
}

// take returns the next task, parking the worker when every deque is
// empty. Returns nil when the pool is closed and drained. The
// double-check under parkMu pairs with submit signalling under parkMu: a
// task pushed before the signal is found by the re-scan, a task pushed
// after wakes the waiter, so no submission is ever lost to a parked worker.
func (p *pool) take(self int) func() {
	st := &p.stats[self]
	start := time.Now()
	var parked int64
	// account splits the elapsed scan time into steal (awake) and park.
	account := func() {
		st.stealNS.Add(time.Since(start).Nanoseconds() - parked)
		st.parkNS.Add(parked)
	}
	if t := p.tryTake(self); t != nil {
		account()
		return t
	}
	p.parkMu.Lock()
	defer p.parkMu.Unlock()
	p.idle.Add(1)
	defer p.idle.Add(-1)
	for {
		if t := p.tryTake(self); t != nil {
			account()
			return t
		}
		if p.closed {
			account()
			return nil
		}
		ps := time.Now()
		p.parked.Wait()
		parked += time.Since(ps).Nanoseconds()
	}
}

func (p *pool) worker(self int) {
	defer p.wg.Done()
	st := &p.stats[self]
	for {
		t := p.take(self)
		if t == nil {
			return
		}
		start := time.Now()
		t()
		st.busyNS.Add(time.Since(start).Nanoseconds())
		st.tasks.Add(1)
	}
}

// workerStats snapshots every worker's scheduling accounting. Call after
// close for quiescent totals; concurrent snapshots are safe but torn across
// fields.
func (p *pool) workerStats() []WorkerStat {
	out := make([]WorkerStat, len(p.stats))
	for i := range p.stats {
		st := &p.stats[i]
		p.deques[i].mu.Lock()
		depth := p.deques[i].depthMax
		p.deques[i].mu.Unlock()
		out[i] = WorkerStat{
			Worker:   i,
			BusyNS:   st.busyNS.Load(),
			StealNS:  st.stealNS.Load(),
			ParkNS:   st.parkNS.Load(),
			Tasks:    st.tasks.Load(),
			Steals:   st.steals.Load(),
			QueueMax: depth,
		}
	}
	return out
}

// close stops the workers once the deques drain. Tasks already accepted
// still run; submissions that lose the race to close are refused (submit
// returns false) and execute inline at the caller — or resolve as cancelled
// when the submitter marked them cancellable.
func (p *pool) close() {
	for i := range p.deques {
		dq := &p.deques[i]
		dq.mu.Lock()
		dq.closed = true
		dq.mu.Unlock()
	}
	p.parkMu.Lock()
	p.closed = true
	p.parkMu.Unlock()
	p.parked.Broadcast()
	p.wg.Wait()
}
