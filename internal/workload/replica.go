package workload

import (
	"slices"

	"chopin/internal/sim"
	"chopin/internal/trace"
)

// Replica is one serving instance in a fleet (internal/fleet): a complete
// invocation — its own engine, heap, collector, JIT warmup state and worker
// pool — run in open-loop discipline but fed by an external driver instead
// of its own arrival schedule. Construction reuses the exact setup path of
// a standalone invocation (newRunner), so a replica's simulation is
// bit-identical to workload.Run given the same config and seed; the only
// difference is who arms the arrival timers.
//
// A replica is driven in three moves: InjectAt arms an arrival at an
// absolute virtual time (which must be at or after the replica's clock —
// the sim.Cluster stepping discipline guarantees this for a driver that
// injects before stepping past the arrival time); the cluster steps the
// replica's engine; DrainCompletions hands back the requests that finished
// during those steps. All methods are single-goroutine, like the engine.
type Replica struct {
	r   *runner
	idx int

	outstanding int
	served      int64

	// pending arrival IDs, FIFO: injections are armed in non-decreasing time
	// order and same-instant timers fire in creation order, so the shared
	// timer callback can pop IDs in order instead of closing over each one.
	pendIDs  []int32
	pendHead int
	injectFn func() // bound once to arrive

	comps []Completion
}

// Completion is one finished request: its fleet-assigned ID and its
// arrival-to-completion interval in virtual nanoseconds.
type Completion struct {
	ID         int32
	Start, End sim.Time
}

// NewReplica builds replica idx of a fleet from the same descriptor and
// config a standalone invocation would take. cfg.Seed should already carry
// any per-replica offset; cfg.Iterations bounds JIT warmup (the live set and
// JIT factor advance one iteration per Events completions, capped at
// Iterations-1). Latency recording is always on — the replica's recorded
// events are the fleet's measurement. The replica grows s (its GC log,
// arrival queue and latency record) until Release; a fleet that hands the
// same replica index the same Scratch on every run appends without growth
// once a first run has sized it.
func NewReplica(d *Descriptor, cfg RunConfig, idx int, s *Scratch) (*Replica, error) {
	cfg.OpenLoop = true
	r, err := newRunner(d, cfg, s)
	if err != nil {
		return nil, err
	}
	rp := &Replica{r: r, idx: idx,
		// Pre-sized so a replica's first injections and completions never
		// allocate on the fleet driving loop.
		pendIDs: make([]int32, 0, 8),
		comps:   make([]Completion, 0, 8),
	}
	rp.injectFn = rp.arrive
	r.onComplete = rp.completed
	r.recording = true
	r.latencies = slices.Grow(s.lat[:0], r.events)
	r.iter = 0
	r.h.SetTargetLive(r.targetLive(0))
	r.ol.busy = make([]bool, len(r.workers))
	// Pre-mint one event frame per worker (each carries two bound method
	// values) so a replica's first requests never allocate frames on the
	// fleet driving loop; a standalone run warms the same pool within its
	// first few events instead.
	minted := make([]*eventFrame, len(r.workers))
	for i := range minted {
		minted[i] = r.newFrame()
	}
	for _, f := range minted {
		r.releaseFrame(f)
	}
	return rp, nil
}

// Index returns the replica's position in its fleet.
func (rp *Replica) Index() int { return rp.idx }

// SetDispatchHook installs fn to observe each injected request leaving the
// replica's queue for an idle worker, at the dispatch instant — the boundary
// between queue wait and service. A nil hook (the default) costs nothing.
// The hook runs inside the dispatch loop and must not re-enter the replica.
func (rp *Replica) SetDispatchHook(fn func(id int32, at sim.Time)) {
	rp.r.onDispatch = fn
}

// Engine returns the replica's simulation engine, for cluster stepping and
// clock reads.
func (rp *Replica) Engine() *sim.Engine { return rp.r.eng }

// InjectAt arms the arrival of request id at absolute virtual time t. The
// request queues behind the replica's workers on arrival and completes
// through DrainCompletions. Injections must be made in non-decreasing t
// order, before the engine steps past t.
func (rp *Replica) InjectAt(t float64, id int32) {
	rp.pendIDs = append(rp.pendIDs, id)
	rp.outstanding++
	rp.r.eng.At(t, rp.injectFn)
}

// arrive is the shared injection timer callback: the oldest pending ID
// arrives at the replica's current virtual time.
func (rp *Replica) arrive() {
	id := rp.pendIDs[rp.pendHead]
	rp.pendHead++
	if rp.pendHead == len(rp.pendIDs) {
		rp.pendIDs = rp.pendIDs[:0]
		rp.pendHead = 0
	}
	rp.r.injectArrival(id)
}

// completed is the runner's open-loop completion hook: bookkeeping, JIT/live
// warmup advance, and the driver-facing completion buffer.
func (rp *Replica) completed(id int32, start, end sim.Time) {
	rp.outstanding--
	rp.served++
	if rp.served%int64(rp.r.events) == 0 && rp.r.iter < rp.r.cfg.Iterations-1 {
		// One warmup "iteration" per nominal event count: the JIT factor
		// improves and the live set (including any leak) advances, exactly as
		// the iteration loop of a standalone invocation would.
		rp.r.iter++
		rp.r.h.SetTargetLive(rp.r.targetLive(rp.r.iter))
	}
	rp.comps = append(rp.comps, Completion{ID: id, Start: start, End: end})
}

// DrainCompletions returns the requests completed since the previous drain.
// The returned slice is reused; consume it before the next engine step.
func (rp *Replica) DrainCompletions() []Completion {
	out := rp.comps
	rp.comps = rp.comps[:0]
	return out
}

// Outstanding returns the number of requests injected but not yet completed
// — queued or in service — the load-balancing signal.
func (rp *Replica) Outstanding() int { return rp.outstanding }

// Paused reports whether the replica's collector is currently inside a
// stop-the-world pause — the GC-aware balancer's routing signal.
func (rp *Replica) Paused() bool { return rp.r.col.Paused() }

// OOM reports whether the replica's heap was exhausted; a fleet run aborts
// when any replica OOMs (the condition is sticky).
func (rp *Replica) OOM() bool { return rp.r.oom }

// OOMErr returns the replica's typed out-of-memory error (nil if healthy).
func (rp *Replica) OOMErr() error {
	if !rp.r.oom {
		return nil
	}
	return &ErrOutOfMemory{rp.r.d.Name, rp.r.cfg.HeapMB, rp.r.cfg.Collector}
}

// Served returns the number of requests the replica has completed.
func (rp *Replica) Served() int64 { return rp.served }

// Latencies returns every recorded completion (arrival → completion), in
// completion order — identical, for a single-replica fleet under constant
// arrivals, to the open-loop runner's recorded events on the same seed. The
// slice is the replica's own record until Release.
func (rp *Replica) Latencies() []Event { return rp.r.latencies }

// Log returns the replica's GC telemetry log; nil after Release.
func (rp *Replica) Log() *trace.Log { return rp.r.log }

// Release hands the replica's Scratch back to the caller that supplied it,
// to reuse for the next run. Call it once everything needed has been read
// from the log and latencies: afterwards Log and Latencies return
// nil and the replica must not be stepped again. A second Release is a
// no-op.
func (rp *Replica) Release() {
	r := rp.r
	if r.scratch == nil {
		return
	}
	r.scratch.lat = r.latencies[:0]
	r.latencies = nil
	r.release()
}

// GCCPU returns the total CPU consumed by the replica's collector, in
// virtual nanoseconds.
func (rp *Replica) GCCPU() float64 { return rp.r.col.GCCPU() }

// TaskClock returns the replica's total CPU consumption (all threads), the
// co-location pressure numerator.
func (rp *Replica) TaskClock() float64 { return rp.r.eng.TaskClock() }

// HeapPeak returns the replica's peak heap occupancy in bytes.
func (rp *Replica) HeapPeak() float64 { return rp.r.h.PeakUsed() }

// WarmupIter returns the replica's current warmup iteration (0-based).
func (rp *Replica) WarmupIter() int { return rp.r.iter }

// Interval returns the replica's nominal open-loop inter-arrival interval in
// nanoseconds — PET spread over the event count, stretched by headroom —
// which fleet arrival processes use as the per-replica mean. The degenerate
// configurations are rejected exactly as the open-loop runner rejects them.
func (rp *Replica) Interval() (float64, error) { return rp.r.openLoopInterval() }

// SetPauseHook installs fn to observe the replica collector's stop-the-world
// transitions (true at world stop, false at restart) — the signal an indexed
// GC-aware balancer maintains its paused-replica set from, replacing the
// per-pick Paused() poll. A nil hook costs nothing.
func (rp *Replica) SetPauseHook(fn func(paused bool)) { rp.r.col.SetPauseHook(fn) }
