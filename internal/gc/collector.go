package gc

import (
	"fmt"

	"chopin/internal/heap"
	"chopin/internal/obs"
	"chopin/internal/sim"
	"chopin/internal/trace"
)

// Collector is a garbage collector instance bound to one simulated run. It
// mediates every mutator allocation, schedules collection work on its own
// simulated threads, and records telemetry.
//
// Protocol: the workload calls Alloc before each mutator quantum; the done
// callback fires (immediately or after GC activity) with ok=false only on
// OutOfMemory. Mutator threads must be registered so stop-the-world pauses
// can block them, and mutator quanta may only be started from quantum
// completions or Alloc callbacks — never directly from timers — so that no
// mutator can start running inside a pause.
//
// The registered mutators form one sim.Group, frozen and thawed as a unit by
// each pause, and the STW workers another, which runs each pause's work as
// one gang quantum: a pause costs no per-thread completion-heap operation.
type Collector struct {
	p    Params
	eng  *sim.Engine
	heap *heap.Heap
	log  *trace.Log
	rec  obs.Recorder

	mutators *sim.Group
	stw      *sim.Group

	concWorkers []*sim.Thread

	inPause    bool
	pauseHook  func(paused bool) // pause-transition observer (SetPauseHook)
	pauseStart sim.Time
	// pending and deferred are FIFO queues drained at pause end; both use a
	// head index and compact when empty so the backing arrays are reused for
	// the whole run instead of reallocated per pause.
	pending      []pendingAlloc
	pendingHead  int
	deferred     []deferredOp
	deferredHead int

	// The pause machinery is a single-flight state machine: only one world
	// pause is ever in flight (nested pauses panic), so its continuation
	// lives in collector fields and the STW gang shares one pre-bound
	// completion callback instead of per-pause closures. Likewise for the
	// concurrent workers and the failing-allocation escalation chain
	// (allocCont/allocBytes/allocDone): a chain suspends at most once per
	// pause, and new allocations defer to pending until it resolves.
	pauseRemaining int
	pauseTotalCPU  float64
	pauseCont      pauseCont
	stwDoneFn      func()
	concDoneFn     func()

	allocCont  allocContKind
	allocBytes float64
	allocDone  func(bool)

	// freeStalls recycles pacer-stall timer continuations (the one callback
	// that must capture per-request state while multiple mutators stall
	// concurrently).
	freeStalls *stallCont

	cycle *cycleState
	// freeCycle recycles cycleStates (only one cycle runs at a time, so a
	// single slot suffices). A cancelled cycle's pointer may still sit in the
	// deferred queue when it is recycled; deferredOp.id detects that.
	freeCycle *cycleState
	// mutFactor caches MutatorFactor's value. The barrier tax only changes
	// when a concurrent cycle starts or ends, so it is recomputed on those
	// transitions instead of per mutator slice (the workload runner reads it
	// before every quantum).
	mutFactor float64
	// fastBudget is the bump-allocation fast path: the number of bytes that
	// can be allocated before *any* collector policy could possibly act — the
	// heap filling up, the concurrent trigger being crossed, or the nursery
	// budget being exhausted. While a request fits strictly inside the
	// budget, Alloc is a pure bump (heap.AllocFast) plus a subtraction; the
	// budget is recomputed whenever collector state changes (collection
	// completions via resizeNursery, cycle transitions, trigger adaptation,
	// pause boundaries) and zeroed whenever the slow path must decide
	// (in-pause, active cycle, OOM). See refreshFastBudget for the exact
	// bounds and why strict inequality keeps this behaviour-identical to the
	// slow path.
	fastBudget float64
	// cycleSeq numbers every collection (young, full, concurrent) within
	// the run; activeID is the collection that owns the pause currently in
	// flight. Both are assigned unconditionally — IDs are part of the
	// deterministic run, telemetry merely reports them — so the event
	// stream is identical whether or not a recorder is attached.
	cycleSeq int64
	activeID int64
	// lastCycleAlloc is TotalAllocated when the previous concurrent cycle
	// finished; a new cycle needs fresh allocation behind it, or an
	// occupancy sitting just above the trigger would re-cycle continuously.
	lastCycleAlloc float64
	// trigger is the live concurrent-cycle trigger occupancy; with
	// AdaptiveTrigger it moves like G1's adaptive IHOP — earlier after a
	// degeneration, later after comfortable cycles.
	trigger float64
	nursery float64
	oom     bool

	// exposed run counters
	degenerations int
}

type pendingAlloc struct {
	bytes float64
	done  func(bool)
}

// deferredOp is one queued end-of-pause continuation: either a mutator's
// post-allocation policy run (done set) or a concurrent cycle completion
// (cy set). id snapshots cy.id at enqueue time: cycleStates are pooled, so
// by the time the entry drains the pointer may have been recycled into a
// newer cycle — a mismatched id marks the entry stale.
type deferredOp struct {
	done func(bool)
	cy   *cycleState
	id   int64
}

// pauseContKind selects the pause-end continuation held in Collector.pauseCont.
type pauseContKind int

const (
	pauseEndNone pauseContKind = iota
	// pauseEndSTWCollect closes a stop-the-world collection: resize the
	// nursery, log the event, then resume the allocation chain (allocCont).
	pauseEndSTWCollect
	// pauseEndCycleStart is a concurrent cycle's initial mark: launch the
	// concurrent workers.
	pauseEndCycleStart
	// pauseEndCycleFinish is a concurrent cycle's final pause: bookkeeping
	// and the cycle's trace event.
	pauseEndCycleFinish
)

// pauseCont carries the in-flight pause's continuation state.
type pauseCont struct {
	kind   pauseContKind
	gcKind trace.GCKind
	st     heap.CollectStats
	id     int64
	cause  int64
	cy     *cycleState
}

// allocContKind selects what happens to the suspended allocation chain when
// a stop-the-world collection's pause ends.
type allocContKind int

const (
	allocContNone allocContKind = iota
	// allocContDone: the allocation already succeeded; the collection was
	// nursery housekeeping. Resume the mutator.
	allocContDone
	// allocContRetryYoung: retry after a young collection; escalate to a
	// full collection on failure.
	allocContRetryYoung
	// allocContRetryFull: retry after a full collection; OOM on failure.
	allocContRetryFull
)

// stallCont is a pooled pacer-stall timer continuation.
type stallCont struct {
	c     *Collector
	bytes float64
	done  func(bool)
	fn    func() // bound once to fire
	next  *stallCont
}

func (c *Collector) newStallCont(bytes float64, done func(bool)) *stallCont {
	sc := c.freeStalls
	if sc == nil {
		sc = &stallCont{c: c}
		sc.fn = sc.fire
	} else {
		c.freeStalls = sc.next
	}
	sc.bytes, sc.done = bytes, done
	return sc
}

// fire re-enters the allocation path after the stall elapses, returning the
// continuation to the pool first (allocAfterStall may stall again and claim
// it immediately).
func (sc *stallCont) fire() {
	c := sc.c
	bytes, done := sc.bytes, sc.done
	sc.done = nil
	sc.next = c.freeStalls
	c.freeStalls = sc
	c.allocAfterStall(bytes, done)
}

type cycleState struct {
	id        int64
	snap      heap.Snapshot
	minor     bool // GenZGC young cycle
	start     sim.Time
	cpuStart  float64
	traced    float64 // live bytes the cycle must trace (set at start)
	remaining int
	cancelled bool
}

// New binds a collector with parameters p to an engine, heap and log.
func New(p Params, eng *sim.Engine, h *heap.Heap, log *trace.Log) *Collector {
	if p.STWThreads < 1 {
		p.STWThreads = 1
	}
	c := &Collector{p: p, eng: eng, heap: h, log: log, rec: obs.Nop, trigger: p.ConcTriggerFrac,
		// Pre-sized so the first deferred allocation and the first cycle's
		// state never allocate on a stepping hot loop; both groups are built
		// here for the same reason.
		deferred:  make([]deferredOp, 0, 8),
		freeCycle: &cycleState{},
		mutators:  eng.NewGroup()}
	stw := make([]*sim.Thread, p.STWThreads)
	for i := range stw {
		stw[i] = eng.NewThread(fmt.Sprintf("gc-stw-%d", i))
	}
	c.stw = eng.NewGroup(stw...)
	for i := 0; i < p.ConcThreads; i++ {
		c.concWorkers = append(c.concWorkers, eng.NewThread(fmt.Sprintf("gc-conc-%d", i)))
	}
	c.stwDoneFn = c.stwWorkerDone
	c.concDoneFn = c.concWorkerDone
	c.updateMutatorFactor()
	c.resizeNursery()
	return c
}

// SetLog rebinds the collector's GC log. A run detaches it (nil) before
// handing the log's storage to another run; the collector must not run
// again after that.
func (c *Collector) SetLog(l *trace.Log) { c.log = l }

// Params returns the collector's configuration.
func (c *Collector) Params() Params { return c.p }

// SetRecorder attaches a telemetry Recorder (nil restores the no-op). Phase
// events are emitted through addEvent alongside the trace.Log entry they
// mirror, so per-kind telemetry sums reproduce the log's totals exactly.
func (c *Collector) SetRecorder(r obs.Recorder) { c.rec = obs.Or(r) }

// phaseNames holds each collection kind's phase name, interned once.
var phaseNames = [...]obs.Name{
	trace.GCYoung:      obs.Intern(trace.GCYoung.String()),
	trace.GCFull:       obs.Intern(trace.GCFull.String()),
	trace.GCConcurrent: obs.Intern(trace.GCConcurrent.String()),
	trace.GCDegenerate: obs.Intern(trace.GCDegenerate.String()),
	trace.GCMixed:      obs.Intern(trace.GCMixed.String()),
}

// oomName is the Err an OOM event carries.
var oomName = obs.Intern("oom")

// phaseName returns the telemetry phase name of a collection kind.
func phaseName(k trace.GCKind) obs.Name {
	if k >= 0 && int(k) < len(phaseNames) {
		return phaseNames[k]
	}
	return obs.Intern(k.String())
}

// addEvent records a completed collection phase in the trace log and, when
// telemetry is live, emits the matching gc-phase-end event, stamped with the
// collection's cycle ID (and the causing cycle, for degenerate collections).
// The event copies the log entry's fields verbatim (wall pause, GC CPU,
// bytes reclaimed), so summing telemetry by kind reconstructs TotalPauseNS
// and TotalGCCPUNS.
func (c *Collector) addEvent(ev trace.GCEvent, id, cause int64) {
	c.log.AddEvent(ev)
	if c.rec.Enabled() {
		c.rec.Record(obs.Event{
			Kind:  obs.KindGCPhaseEnd,
			TNS:   ev.End,
			Phase: phaseName(ev.Kind),
			DurNS: ev.PauseNS,
			CPUNS: ev.CPUNS,
			Value: ev.Reclaimed,
			Aux:   ev.UsedAfter,
			Cycle: id,
			Cause: cause,
		})
	}
}

// phaseStart opens a new collection: it assigns the next cycle ID, marks it
// the owner of upcoming pauses, and emits a gc-phase-start event when
// telemetry is live. cause links a degenerate collection to the concurrent
// cycle that lost the race (zero otherwise).
func (c *Collector) phaseStart(kind trace.GCKind, cause int64) int64 {
	c.cycleSeq++
	id := c.cycleSeq
	c.activeID = id
	if c.rec.Enabled() {
		c.rec.Record(obs.Event{
			Kind:  obs.KindGCPhaseStart,
			TNS:   c.eng.Now(),
			Phase: phaseName(kind),
			Cycle: id,
			Cause: cause,
		})
	}
	return id
}

// Degenerations returns how many times a concurrent cycle lost the race and
// fell back to a stop-the-world full collection.
func (c *Collector) Degenerations() int { return c.degenerations }

// Paused reports whether the world is currently stopped: mutator quanta are
// deferred and any request routed here waits out the pause. A GC-aware load
// balancer reads this to route around pausing replicas.
func (c *Collector) Paused() bool { return c.inPause }

// SetPauseHook installs fn to observe every stop-the-world transition: it is
// called with true the instant the world stops (before any STW work runs)
// and false the instant it restarts (before blocked mutators resume). A
// GC-aware fleet balancer uses this to maintain its paused-replica index
// without polling; a nil hook (the default) costs one branch per pause. The
// hook runs inside the pause machinery and must not re-enter the collector.
func (c *Collector) SetPauseHook(fn func(paused bool)) { c.pauseHook = fn }

// RegisterMutator declares idle mutator threads subject to STW pauses.
// Registering them all in one call sizes the mutator group once.
func (c *Collector) RegisterMutator(ts ...*sim.Thread) { c.mutators.Add(ts...) }

// MutatorFactor returns the current execution-time multiplier mutator quanta
// must pay for the collector's barriers. The value is cached and invalidated
// on cycle-phase transitions (updateMutatorFactor), since those are the only
// points at which it can change.
func (c *Collector) MutatorFactor() float64 { return c.mutFactor }

// updateMutatorFactor recomputes the cached barrier tax; callers are the
// cycle-phase transitions (start, finish, cancel) and construction.
func (c *Collector) updateMutatorFactor() {
	f := 1 + c.p.BarrierBase
	if c.cycle != nil {
		f += c.p.BarrierConc
	}
	c.mutFactor = f
}

// GCCPU returns the total CPU consumed by the collector's threads so far.
// Thread.CPU materializes in-flight service credit lazily, so the sum is
// exact even when workers are mid-quantum (e.g. during a concurrent cycle).
func (c *Collector) GCCPU() float64 {
	var sum float64
	for _, t := range c.stw.Members() {
		sum += t.CPU()
	}
	for _, t := range c.concWorkers {
		sum += t.CPU()
	}
	return sum
}

// resizeNursery recomputes the young-space budget from current free space.
func (c *Collector) resizeNursery() {
	n := c.heap.Free() * c.p.YoungFracOfFree
	if n < c.p.NurseryMinBytes {
		n = c.p.NurseryMinBytes
	}
	if c.p.NurseryMaxBytes > 0 && n > c.p.NurseryMaxBytes {
		n = c.p.NurseryMaxBytes
	}
	c.nursery = n
	c.refreshFastBudget()
}

// refreshFastBudget recomputes how many bytes the bump fast path may hand
// out before any policy decision could differ from doing nothing:
//
//   - the allocation must fit (TryAlloc fails when used+b > capacity);
//   - it must not reach the concurrent trigger (maybeStartCycle acts when
//     post-allocation occupancy >= trigger*capacity — for StyleConcOld the
//     occupancy is old-space only, which mutator allocation cannot move, but
//     if it already sits at the trigger the per-allocation spacing rule must
//     be consulted, so the fast path is disabled);
//   - it must not exhaust the nursery (afterSuccessfulAlloc collects when
//     post-allocation young >= nursery).
//
// Every bound shrinks linearly in allocated bytes (or not at all), so one
// scalar decremented per fast allocation tracks all of them exactly; Alloc
// requires bytes strictly below the remaining budget, which keeps each ">="
// threshold unreached and the slow path's decisions vacuous. The budget is
// zero whenever the slow path must run: during pauses (allocations defer),
// while a concurrent cycle is active (the pacer may stall and the cycle's
// completion may be pending), and after OOM.
func (c *Collector) refreshFastBudget() {
	if c.oom || c.inPause || c.cycle != nil {
		c.fastBudget = 0
		return
	}
	cap := c.heap.Capacity()
	b := cap - c.heap.Used()
	if c.p.ConcTriggerFrac > 0 {
		if c.p.Style == StyleConcOld {
			if c.heap.OldLive()+c.heap.OldDead() >= c.trigger*cap {
				b = 0
			}
		} else if t := c.trigger*cap - c.heap.Used(); t < b {
			b = t
		}
	}
	if c.p.Generational {
		if n := c.nursery - c.heap.Young(); n < b {
			b = n
		}
	}
	if b < 0 {
		b = 0
	}
	c.fastBudget = b
}

// Alloc requests bytes for a mutator; done fires when the allocation is
// resolved. A false argument means the collector exhausted every option
// (OutOfMemoryError).
func (c *Collector) Alloc(bytes float64, done func(ok bool)) {
	// Bump fast path: strictly inside the precomputed budget, no collector
	// policy can act — allocate and return. This is the steady-state route
	// for every mutator slice between collections.
	if bytes < c.fastBudget && bytes >= 0 {
		c.fastBudget -= bytes
		c.heap.AllocFast(bytes)
		done(true)
		return
	}
	if c.oom {
		done(false)
		return
	}
	if c.inPause {
		c.pending = append(c.pending, pendingAlloc{bytes, done})
		return
	}
	// Pacing: while a concurrent cycle races the application, allocation is
	// throttled as free space runs out (Shenandoah's pacer, ZGC's
	// allocation stalls).
	if c.cycle != nil && c.p.Pacer {
		if stall := c.pacerStall(); stall > 0 {
			c.log.AddStall(stall)
			if c.rec.Enabled() {
				// TNS is the stall's start; Cause attributes it to the
				// concurrent cycle whose pacer throttled the allocation.
				c.rec.Record(obs.Event{
					Kind: obs.KindPacerStall, TNS: c.eng.Now(),
					DurNS: stall, Cause: c.cycle.id,
				})
			}
			c.eng.After(stall, c.newStallCont(bytes, done).fn)
			return
		}
	}
	if c.tryAlloc(bytes) {
		c.afterSuccessfulAlloc(done)
		return
	}
	c.handleFailure(bytes, done)
}

// tryAlloc is the slow path's heap allocation. A success consumes free space,
// so the fast-path budget shrinks by the same bytes: every bound the budget
// tracks decreases linearly with allocation (or, for G1's old-space trigger,
// not at all), so the decrement keeps it conservative without a full refresh.
func (c *Collector) tryAlloc(bytes float64) bool {
	if !c.heap.TryAlloc(bytes) {
		return false
	}
	if c.fastBudget > 0 {
		c.fastBudget -= bytes
		if c.fastBudget < 0 {
			c.fastBudget = 0
		}
	}
	return true
}

// allocAfterStall re-enters Alloc once a pacing stall elapses, deferring if a
// pause began meanwhile.
func (c *Collector) allocAfterStall(bytes float64, done func(bool)) {
	if c.inPause {
		c.pending = append(c.pending, pendingAlloc{bytes, done})
		return
	}
	// Do not stall twice in a row for the same request: proceed or collect.
	if c.tryAlloc(bytes) {
		c.afterSuccessfulAlloc(done)
		return
	}
	c.handleFailure(bytes, done)
}

// afterSuccessfulAlloc runs post-allocation policy: concurrent-cycle
// triggering and nursery-exhaustion young collections. Starting a concurrent
// cycle takes a synchronous initial pause, in which case the rest of the
// policy (and the mutator's continuation) must wait for the pause to end.
func (c *Collector) afterSuccessfulAlloc(done func(bool)) {
	c.maybeStartCycle()
	if c.inPause {
		c.deferred = append(c.deferred, deferredOp{done: done})
		return
	}
	if c.p.Generational && c.heap.Young() >= c.nursery {
		if c.p.Style == StyleConcFull {
			// GenZGC: minor collections are concurrent too.
			c.maybeStartMinorCycle()
			done(true)
			return
		}
		c.allocCont, c.allocBytes, c.allocDone = allocContDone, 0, done
		c.stwYoung()
		return
	}
	done(true)
}

// pacerStall returns how long an allocating mutator must stall right now.
func (c *Collector) pacerStall() float64 {
	threshold := c.p.PacerFreeFrac * c.heap.Capacity()
	free := c.heap.Free()
	if free >= threshold || threshold <= 0 {
		return 0
	}
	deficit := 1 - free/threshold
	return deficit * c.p.PacerMaxStallNS
}

// handleFailure escalates an allocation failure: young collection first for
// generational collectors, then a full (or degenerate) STW collection, then
// OOM. The chain's state (bytes, done, next step) suspends in the allocCont
// fields across each collection's pause; runAllocCont resumes it.
func (c *Collector) handleFailure(bytes float64, done func(bool)) {
	c.allocBytes, c.allocDone = bytes, done
	if c.cycle == nil && c.p.Generational && c.heap.Young() > 0 {
		c.allocCont = allocContRetryYoung
		c.stwYoung()
		return
	}
	// Either the concurrent cycle lost the race, or there is nothing young
	// to collect: go straight to the full collection.
	c.failFull()
}

// failFull runs the chain's last resort: cancel any concurrent cycle and
// take a full (or degenerate) STW collection, retrying the allocation at
// its end (allocContRetryFull).
func (c *Collector) failFull() {
	fullKind := trace.GCFull
	if c.p.Style == StyleConcFull {
		fullKind = trace.GCDegenerate
	}
	var cause int64
	if c.cycle != nil {
		cause = c.cycle.id
		c.cancelCycle()
	}
	c.degenerationsIf(fullKind, cause)
	// Any full collection means the concurrent policy started too late
	// (G1 logs these as full GCs, not degenerations).
	c.adaptTrigger(-0.08)
	c.allocCont = allocContRetryFull
	c.stwFull(fullKind, cause)
}

// runAllocCont resumes the suspended allocation chain after a stop-the-world
// collection completes.
func (c *Collector) runAllocCont() {
	cont, bytes, done := c.allocCont, c.allocBytes, c.allocDone
	switch cont {
	case allocContDone:
		c.allocCont, c.allocDone = allocContNone, nil
		done(true)
	case allocContRetryYoung:
		if c.tryAlloc(bytes) {
			c.allocCont, c.allocDone = allocContNone, nil
			done(true)
			return
		}
		c.failFull() // chain state stays set; the full collection retries
	case allocContRetryFull:
		c.allocCont, c.allocDone = allocContNone, nil
		if c.tryAlloc(bytes) {
			done(true)
			return
		}
		c.oom = true
		c.fastBudget = 0
		if c.rec.Enabled() {
			c.rec.Record(obs.Event{Kind: obs.KindOOM, TNS: c.eng.Now(), Value: bytes, Err: oomName})
		}
		done(false)
	}
}

func (c *Collector) degenerationsIf(kind trace.GCKind, cause int64) {
	if kind == trace.GCDegenerate {
		c.degenerations++
		if c.rec.Enabled() {
			c.rec.Record(obs.Event{Kind: obs.KindDegenerateGC, TNS: c.eng.Now(), Cause: cause})
		}
	}
}

// adaptTrigger nudges the concurrent trigger occupancy when the collector's
// AdaptiveTrigger policy is enabled, clamped to a sane band.
func (c *Collector) adaptTrigger(delta float64) {
	if !c.p.AdaptiveTrigger {
		return
	}
	c.trigger += delta
	if c.trigger < 0.20 {
		c.trigger = 0.20
	}
	if c.trigger > 0.75 {
		c.trigger = 0.75
	}
	c.refreshFastBudget()
}

// stwYoung performs a stop-the-world young collection. The caller must have
// parked its continuation in the allocCont fields; it resumes at pause end.
func (c *Collector) stwYoung() {
	id := c.phaseStart(trace.GCYoung, 0)
	st := c.heap.CollectYoung()
	serial := c.p.PauseFloorNS +
		c.p.MarkNsPerByte*st.ScannedBytes + c.p.CopyNsPerByte*st.CopiedBytes
	c.pauseWorld(serial, pauseCont{kind: pauseEndSTWCollect, gcKind: trace.GCYoung, st: st, id: id})
}

// stwFull performs a stop-the-world full collection (or a degenerate one for
// a concurrent collector that lost the race; cause is then the lost cycle).
// Like stwYoung, the allocation chain resumes from allocCont at pause end.
func (c *Collector) stwFull(kind trace.GCKind, cause int64) {
	id := c.phaseStart(kind, cause)
	st := c.heap.CollectFull()
	serial := c.p.PauseFloorNS +
		c.p.MarkNsPerByte*st.ScannedBytes + c.p.CopyNsPerByte*st.CopiedBytes
	c.pauseWorld(serial, pauseCont{kind: pauseEndSTWCollect, gcKind: kind, st: st, id: id, cause: cause})
}

// maybeStartCycle begins a concurrent (major) cycle when the trigger
// occupancy is crossed.
func (c *Collector) maybeStartCycle() {
	if c.cycle != nil || c.p.ConcTriggerFrac <= 0 {
		return
	}
	occ := c.heap.Used()
	if c.p.Style == StyleConcOld {
		occ = c.heap.OldLive() + c.heap.OldDead()
	}
	cap := c.heap.Capacity()
	if occ < c.trigger*cap {
		return
	}
	// Cycle spacing: unless the heap is nearly exhausted, require fresh
	// allocation worth 20% of capacity since the previous cycle.
	if occ < 0.85*cap && c.heap.TotalAllocated()-c.lastCycleAlloc < 0.2*cap {
		return
	}
	c.startCycle(false)
}

// maybeStartMinorCycle begins a GenZGC-style concurrent young collection.
func (c *Collector) maybeStartMinorCycle() {
	if c.cycle != nil {
		return
	}
	c.startCycle(true)
}

// startCycle snapshots the heap, takes the initial tiny pause, and launches
// concurrent workers (from the pause-end continuation).
func (c *Collector) startCycle(minor bool) {
	id := c.phaseStart(trace.GCConcurrent, 0)
	snap, traced := c.heap.SnapshotForConcurrent()
	if minor {
		traced = c.heap.Young() * 0.5
	}
	cy := c.freeCycle
	if cy == nil {
		cy = &cycleState{}
	} else {
		c.freeCycle = nil
	}
	*cy = cycleState{id: id, snap: snap, minor: minor, start: c.eng.Now(), cpuStart: c.concCPU(), traced: traced}
	c.cycle = cy
	c.updateMutatorFactor()
	c.pauseWorld(c.p.TinyPauseNS, pauseCont{kind: pauseEndCycleStart, cy: cy})
}

// concWorkerDone is the shared completion callback for every concurrent
// worker quantum. It may read c.cycle directly: Thread.Abandon clears a
// cancelled cycle's pending callbacks, and a new cycle only starts once
// c.cycle is nil again, so a firing callback always belongs to the live cycle.
func (c *Collector) concWorkerDone() {
	cy := c.cycle
	cy.remaining--
	if cy.remaining == 0 && !cy.cancelled {
		c.tryFinishCycle(cy)
	}
}

// concCPU sums concurrent workers' CPU, for per-cycle attribution. It is
// read both at cycle start (workers idle) and at cancellation (workers
// mid-quantum); the engine's lazy accounting keeps both reads exact.
func (c *Collector) concCPU() float64 {
	var sum float64
	for _, t := range c.concWorkers {
		sum += t.CPU()
	}
	return sum
}

// tryFinishCycle completes a concurrent cycle with its final pause; if the
// world is currently paused (e.g. a G1 young collection is in flight), the
// completion is deferred to the end of that pause.
func (c *Collector) tryFinishCycle(cy *cycleState) {
	if cy.cancelled {
		return
	}
	if c.inPause {
		c.deferred = append(c.deferred, deferredOp{cy: cy, id: cy.id})
		return
	}
	st := c.heap.FinishConcurrent(cy.snap)
	finalWork := c.p.TinyPauseNS
	kind := trace.GCConcurrent
	if c.p.Style == StyleConcOld {
		// G1: the cycle ends in mixed evacuation pauses that copy live data
		// out of the most-garbage-rich regions.
		finalWork += c.p.CopyNsPerByte * st.ReclaimedBytes * c.p.MixedCopyFrac
		kind = trace.GCMixed
	}
	c.activeID = cy.id // the final pause belongs to the finishing cycle
	c.pauseWorld(finalWork, pauseCont{kind: pauseEndCycleFinish, gcKind: kind, st: st, cy: cy})
}

// cancelCycle aborts the active concurrent cycle (degeneration): workers
// abandon their remaining work; CPU already burned is logged as a fruitless
// concurrent event.
func (c *Collector) cancelCycle() {
	cy := c.cycle
	if cy == nil {
		return
	}
	cy.cancelled = true
	c.cycle = nil
	c.updateMutatorFactor()
	c.lastCycleAlloc = c.heap.TotalAllocated()
	for _, w := range c.concWorkers {
		if w.State() == sim.StateRunnable {
			w.Abandon()
		}
	}
	c.addEvent(trace.GCEvent{
		Kind:      trace.GCConcurrent,
		Start:     cy.start,
		End:       c.eng.Now(),
		CPUNS:     c.concCPU() - cy.cpuStart,
		UsedAfter: c.heap.Used(),
		LiveAfter: c.heap.TargetLive(),
	}, cy.id, 0)
	*cy = cycleState{}
	c.freeCycle = cy
}

// pauseWorld freezes the mutator group — every runnable mutator blocks —
// and executes serialCPU of GC work on the STW gang (inflated by the
// parallel-efficiency loss), one equal share per worker. The pause's
// continuation pc runs at pause end (endPause), before the mutators retry
// deferred allocations. Only one pause is ever in flight, so the pause state
// lives in collector fields and every STW worker shares the pre-bound
// stwDoneFn callback — no per-pause closures.
func (c *Collector) pauseWorld(serialCPU float64, pc pauseCont) {
	if c.inPause {
		panic("gc: nested world pause")
	}
	c.inPause = true
	if c.pauseHook != nil {
		c.pauseHook(true)
	}
	c.fastBudget = 0 // allocations must defer until the pause ends
	c.pauseStart = c.eng.Now()
	c.mutators.Block()
	k := c.p.STWThreads
	total := serialCPU * (1 + c.p.ParLoss*float64(k-1))
	share := total / float64(k)
	c.pauseRemaining = k
	c.pauseTotalCPU = total
	c.pauseCont = pc
	c.stw.Exec(share, c.stwDoneFn)
}

// stwWorkerDone is the shared completion callback for every STW worker
// quantum; the last worker to finish closes out the pause.
func (c *Collector) stwWorkerDone() {
	c.pauseRemaining--
	if c.pauseRemaining == 0 {
		c.endPause()
	}
}

// endPause closes out a world pause: telemetry, mutator release, the pause's
// continuation, then deferred completions and pending allocation retries.
func (c *Collector) endPause() {
	now := c.eng.Now()
	wall := float64(now - c.pauseStart)
	c.log.AddPause(trace.Pause{Start: c.pauseStart, End: now})
	if c.rec.Enabled() {
		c.rec.Record(obs.Event{Kind: obs.KindGCPause, TNS: now, DurNS: wall, Cycle: c.activeID})
	}
	c.inPause = false
	if c.pauseHook != nil {
		c.pauseHook(false)
	}
	c.mutators.Unblock()
	c.runPauseEnd(c.pauseTotalCPU, wall)
	// Deferred cycle completions run before allocation retries so reclaimed
	// space is visible to them; both loops stop if a new pause begins. The
	// queues drain through a head index and compact when empty, reusing their
	// backing arrays across pauses.
	for !c.inPause && c.deferredHead < len(c.deferred) {
		op := c.deferred[c.deferredHead]
		c.deferred[c.deferredHead] = deferredOp{}
		c.deferredHead++
		if op.cy != nil {
			if op.cy.id == op.id { // stale entries point at a recycled cycleState
				c.tryFinishCycle(op.cy)
			}
		} else {
			c.afterSuccessfulAlloc(op.done)
		}
	}
	if c.deferredHead == len(c.deferred) {
		c.deferred = c.deferred[:0]
		c.deferredHead = 0
	}
	for !c.inPause && c.pendingHead < len(c.pending) {
		pa := c.pending[c.pendingHead]
		c.pending[c.pendingHead] = pendingAlloc{}
		c.pendingHead++
		c.Alloc(pa.bytes, pa.done)
	}
	if c.pendingHead == len(c.pending) {
		c.pending = c.pending[:0]
		c.pendingHead = 0
	}
}

// runPauseEnd dispatches the in-flight pause's continuation.
func (c *Collector) runPauseEnd(cpu, wall float64) {
	pe := c.pauseCont
	c.pauseCont = pauseCont{}
	switch pe.kind {
	case pauseEndSTWCollect:
		c.resizeNursery()
		c.logEvent(pe.gcKind, pe.st, cpu, wall, pe.id, pe.cause)
		c.runAllocCont()
	case pauseEndCycleStart:
		cy := pe.cy
		if cy.cancelled {
			return
		}
		work := c.p.MarkNsPerByte*cy.traced + c.p.CopyNsPerByte*cy.traced*c.p.EvacFraction
		k := len(c.concWorkers)
		work *= 1 + c.p.ParLoss*float64(k-1)
		cy.remaining = k
		share := work / float64(k)
		for _, w := range c.concWorkers {
			w.Exec(share, c.concDoneFn)
		}
	case pauseEndCycleFinish:
		cy := pe.cy
		concCPU := c.concCPU() - cy.cpuStart
		c.cycle = nil
		c.updateMutatorFactor()
		c.lastCycleAlloc = c.heap.TotalAllocated()
		if c.heap.Free() > 0.5*c.heap.Capacity() {
			c.adaptTrigger(+0.02) // comfortable finish: collect later next time
		}
		c.resizeNursery()
		ev := trace.GCEvent{
			Kind:      pe.gcKind,
			Start:     cy.start,
			End:       c.eng.Now(),
			PauseNS:   wall,
			CPUNS:     cpu + concCPU,
			Reclaimed: pe.st.ReclaimedBytes,
			Copied:    pe.st.CopiedBytes,
			UsedAfter: c.heap.Used(),
			LiveAfter: c.heap.TargetLive(),
		}
		c.addEvent(ev, cy.id, 0)
		// The finished cycle has no outstanding references (its one possible
		// deferred completion was consumed to get here), so recycle it.
		*cy = cycleState{}
		c.freeCycle = cy
	}
}

// logEvent records a completed STW collection.
func (c *Collector) logEvent(kind trace.GCKind, st heap.CollectStats, cpu, wall float64, id, cause int64) {
	c.addEvent(trace.GCEvent{
		Kind:      kind,
		Start:     c.eng.Now() - int64(wall),
		End:       c.eng.Now(),
		PauseNS:   wall,
		CPUNS:     cpu,
		Reclaimed: st.ReclaimedBytes,
		Copied:    st.CopiedBytes,
		UsedAfter: c.heap.Used(),
		LiveAfter: c.heap.TargetLive(),
	}, id, cause)
}
