// Package sim implements the discrete-event simulation substrate on which
// the whole system runs.
//
// The model is an exact continuous processor-sharing simulation: a virtual
// machine with a fixed number of hardware threads executes a set of logical
// threads. Whenever n threads are runnable, the machine delivers an aggregate
// capacity C(n) (by default min(n, HW)), shared equally, so each runnable
// thread progresses at rate C(n)/n CPU-nanoseconds per virtual nanosecond.
// The engine advances time in piecewise-constant segments to the next quantum
// completion or timer expiry; within a segment all rates are constant, so the
// simulation is exact rather than time-stepped.
//
// Two clocks fall out of this, matching the paper's measurement methodology:
//
//   - wall clock: the virtual time elapsed (what a stopwatch sees), and
//   - task clock: the sum of CPU time consumed by every thread (what Linux
//     perf TASK_CLOCK reports), which exposes total computational cost even
//     when work hides on otherwise-idle cores.
//
// # Virtual service time
//
// Because every runnable thread progresses at the same instantaneous rate,
// the engine keeps one cumulative service credit S(t) — the CPU-nanoseconds
// any thread continuously runnable since t=0 would have consumed — and
// advances it segment by segment. A thread entering a quantum with r
// nanoseconds of work at credit S₀ completes exactly when S reaches S₀+r,
// a quantity fixed at entry and independent of later rate changes. A binary
// min-heap keyed on that completion credit therefore gives O(1) next-event
// lookup and O(log T) per state transition, instead of an O(T)
// rescan-and-update per segment. Per-thread cpu/remaining are materialized
// lazily from S deltas only when a thread leaves the runnable set (or when
// read), and the task clock is an O(1) aggregate. The package tests keep the
// O(T) stepper, with eager per-thread accounting and its own threads, groups
// and timers, as the correctness oracle (reference_test.go); a seeded
// property test drives both through randomized schedules and demands
// identical traces and telemetry.
//
// # Groups
//
// A Group is a set of threads scheduled as a unit, built for stop-the-world
// collection, where every pause blocks all mutators and runs a gang of GC
// workers. The group owns a completion sub-heap of its members' entries, and
// Step merges the engine heap with every thawed sub-heap in (finishS, id)
// order, so completions are collected, and their float sums accumulated, in
// the order one heap would produce.
//
//   - Block freezes the group: each runnable member's CPU is materialized
//     and its residual work kept, as Thread.Block does, but its entry stays
//     put and the frozen sub-heap drops out of next-event lookup. Unblock
//     computes finishS = S + remaining per member, as Thread.Unblock does,
//     and rewrites each entry's key in place. That rewrite is the map
//     x ↦ S_u + (x − S_b), with S_b and S_u the credit at Block and
//     Unblock. The map is monotone, so the sub-heap stays ordered (an O(n)
//     heapify repairs the rare pair of keys that round to one value), and
//     every key is bit-identical to the one a fresh push would carry. No
//     group credit offset is needed, and a pause costs no heap operation per
//     mutator.
//   - Exec gives every member the same quantum under one entry keyed by the
//     lowest member id, which expands into the live members, in id order,
//     when it completes. With consecutive member ids (as a collector's
//     workers have) that is exactly where per-member entries would have
//     popped. A member released mid-quantum drops out and the entry lives on
//     while any member remains.
//
// # Live queues
//
// Every scheduler queue holds only live entries, so every queue top is a
// real next event. A timer cannot be cancelled and fires exactly once. A thread that leaves its quantum early (Block, Abandon, Finish, or a
// group freeze moving its entry into the sub-heap) has its completion entry
// removed at once from the heap that holds it, by a scan: a heap holds at
// most one entry per active thread, a handful in practice. A Cluster keeps
// one slot per engine in a MinIndex and re-keys it in place when the engine
// changes. NextEventAt is therefore a pure read of the queue tops.
//
// All state is confined to a single goroutine; the engine is deterministic
// given a seed, which is what lets invocations be replayed and confidence
// intervals be honest.
package sim

import (
	"fmt"
	"math"

	"chopin/internal/obs"
)

// Time is a point in virtual time, in nanoseconds.
type Time = int64

// Common durations in virtual nanoseconds.
const (
	Microsecond = 1e3
	Millisecond = 1e6
	Second      = 1e9
)

// CapacityFunc maps the number of runnable threads to the aggregate CPU
// capacity delivered by the machine, in units of hardware threads. It must
// satisfy 0 < C(n) <= n for n > 0, be non-decreasing in n, and be pure: the
// engine memoizes C(n) per runnable count.
type CapacityFunc func(runnable int) float64

// compEntry is the completion-heap entry for one runnable stint of a thread:
// the thread completes its quantum when the engine's service credit reaches
// finishS. Every entry is live: a thread that leaves the runnable set early
// has its entry removed at once from whichever heap holds it. A gang entry
// (Group.Exec) points at its group's lead sentinel instead of a member and
// stands for every member still running the gang quantum.
type compEntry struct {
	finishS float64
	id      int32
	t       *Thread
}

func (a compEntry) lessThan(b compEntry) bool {
	if a.finishS != b.finishS {
		return a.finishS < b.finishS
	}
	return a.id < b.id
}

// Engine is the discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now      float64
	vs       float64 // cumulative virtual service credit S(t)
	hw       int
	capacity CapacityFunc
	rates    []float64 // memoized C(n)/n by runnable count
	threads  []*Thread

	// Completion queue, plus one sub-heap per Group, linked through
	// Group.next. A frozen group's sub-heap takes no part in next-event
	// lookup.
	comp   ordHeap[compEntry]
	groups *Group

	// Runnable-set aggregates, maintained incrementally on every state
	// transition so Step never rescans threads:
	//   TaskClock = cpuBase + runCount·S − sumStartS
	runCount  int     // |runnable|, counting only quanta still in flight
	sumStartS float64 // Σ startS over active threads
	cpuBase   float64 // Σ materialized cpu over all threads

	// Timer queue (see timer.go).
	timers   ordHeap[timerEntry]
	timerSeq int64

	events     int64
	maxEv      int64
	timerFires int64

	// Cluster membership (see multi.go): every state change that can move
	// the engine's next event (a processed step, a thread transition, a
	// timer arming) tells the owning cluster to re-read it.
	cl    *Cluster
	clIdx int32

	// Telemetry. recOn caches rec.Enabled() so the per-step cost of disabled
	// telemetry is a plain bool test, not an interface call; the quiescent-
	// point deltas are relative to the previous quiescent event.
	rec    obs.Recorder
	recOn  bool
	lastQT float64
	lastQE int64
	lastQF int64

	// Continuous-sampling hook (SetSampler): when armed, the stepper calls
	// onSample at every crossed multiple of sampleEvery virtual nanoseconds.
	// Disarmed, nextSample is +Inf and the per-step cost is one float
	// compare — the hot path stays allocation-free and within the engine
	// benchmark budget.
	sampleEvery float64
	nextSample  float64
	onSample    func(tNS float64)

	// batch is scratch reused across steps to avoid per-step allocation:
	// the threads completing this segment.
	batch []*Thread
}

// NewEngine returns an engine modelling a machine with hw hardware threads.
// If capacity is nil, the machine delivers min(n, hw) — perfect scaling up to
// the hardware thread count.
func NewEngine(hw int, capacity CapacityFunc) *Engine {
	if hw < 1 {
		panic(fmt.Sprintf("sim: hw threads must be >= 1, got %d", hw))
	}
	e := &Engine{hw: hw, capacity: capacity, maxEv: math.MaxInt64, rec: obs.Nop,
		nextSample: math.Inf(1)}
	// Warm the per-engine scratch: an engine's first few pushes and batches —
	// e.g. the first request a fleet driver injects into a fresh replica, or
	// its first GC pause — must not be the ones paying slice growth on a
	// driving hot loop.
	e.timers.a = make([]timerEntry, 0, 8)
	e.comp.a = make([]compEntry, 0, 32)
	e.batch = make([]*Thread, 0, 16)
	e.rates = make([]float64, 0, 32)
	if e.capacity == nil {
		e.capacity = func(n int) float64 {
			if n > hw {
				return float64(hw)
			}
			return float64(n)
		}
	}
	return e
}

// Now returns the current virtual time in nanoseconds.
func (e *Engine) Now() Time { return int64(e.now) }

// NowF returns the current virtual time as a float64 nanosecond count,
// useful for rate arithmetic without truncation.
func (e *Engine) NowF() float64 { return e.now }

// HWThreads returns the number of hardware threads in the machine model.
func (e *Engine) HWThreads() int { return e.hw }

// Events returns the number of scheduling events processed so far.
func (e *Engine) Events() int64 { return e.events }

// SetRecorder attaches a telemetry Recorder (nil restores the no-op). The
// engine emits one quiescent-point event per Run drain; heavier per-event
// telemetry would tax the stepper, so scheduler detail stays in counters
// (events processed, timer callbacks fired) that the recorder snapshots at
// quiescent points.
func (e *Engine) SetRecorder(r obs.Recorder) {
	e.rec = obs.Or(r)
	e.recOn = e.rec.Enabled()
}

// SetSampler arms the continuous-sampling hook: fn is called once per
// crossed multiple of intervalNS virtual nanoseconds, with the boundary time
// as its argument, from inside the stepper immediately after time advances
// past it (so the machine state fn observes is the state at the first event
// boundary at or after the tick). A nil fn or non-positive interval disarms
// the hook. Sampling happens on virtual time, not timers, so an armed
// sampler never keeps an otherwise-quiescent simulation alive.
func (e *Engine) SetSampler(intervalNS float64, fn func(tNS float64)) {
	if fn == nil || intervalNS <= 0 {
		e.sampleEvery, e.onSample = 0, nil
		e.nextSample = math.Inf(1)
		return
	}
	e.sampleEvery = intervalNS
	e.onSample = fn
	// First tick at the next boundary strictly after now.
	e.nextSample = (math.Floor(e.now/intervalNS) + 1) * intervalNS
}

// crossSamples dispatches the sampling hook for every interval boundary the
// stepper just crossed. It is kept out of Step's body so the disarmed path
// costs only the inlined float compare.
func (e *Engine) crossSamples() {
	for e.now >= e.nextSample {
		e.onSample(e.nextSample)
		e.nextSample += e.sampleEvery
	}
}

// SetEventLimit caps the number of events Run will process before giving up;
// it is a safety net against runaway simulations. Zero or negative restores
// the default (unlimited).
func (e *Engine) SetEventLimit(n int64) {
	if n <= 0 {
		n = math.MaxInt64
	}
	e.maxEv = n
}

// TaskClock returns the total CPU time consumed by all threads so far, in
// nanoseconds — the simulated equivalent of Linux perf TASK_CLOCK. It is an
// O(1) running aggregate: the materialized base plus each active thread's
// in-flight service credit.
func (e *Engine) TaskClock() float64 {
	return e.cpuBase + float64(e.runCount)*e.vs - e.sumStartS
}

const timeEps = 1e-6 // tolerance for float time comparisons, in ns

// mutated records a state change that may have moved the engine's next event:
// the owning cluster (if any) is told to re-read this engine's next event on
// its next Peek. Standalone engines pay one nil check.
func (e *Engine) mutated() {
	if e.cl != nil {
		e.cl.markDirty(e.clIdx)
	}
}

// rateFor returns the per-thread progress rate C(n)/n for n runnable
// threads, memoized (CapacityFunc is pure by contract).
func (e *Engine) rateFor(n int) float64 {
	for len(e.rates) <= n {
		e.rates = append(e.rates, 0)
	}
	r := e.rates[n]
	if r == 0 {
		c := e.capacity(n)
		if c <= 0 || c > float64(n)+timeEps {
			panic(fmt.Sprintf("sim: invalid capacity %v for %d runnable threads", c, n))
		}
		r = c / float64(n)
		e.rates[n] = r
	}
	return r
}

// activate enters a thread into the runnable set: its completion credit is
// fixed at S+remaining and pushed on the completion heap — its group's
// sub-heap unless the group is frozen — and the aggregates pick it up.
// O(log T).
func (e *Engine) activate(t *Thread) {
	e.start(t)
	e.enqueue(t)
}

// enqueue pushes t's completion entry (t may be a gang sentinel) on its
// group's sub-heap, or on the engine heap if it has no group or the group is
// frozen.
func (e *Engine) enqueue(t *Thread) {
	en := compEntry{finishS: t.finishS, id: t.id, t: t}
	if g := t.grp; g != nil && !g.frozen {
		t.inSub = true
		g.q.push(en)
		return
	}
	t.inSub = false
	e.comp.push(en)
}

// unqueue removes t's completion entry (t may be a gang sentinel) from
// whichever heap holds it, after its thread left the quantum mid-flight.
func (e *Engine) unqueue(t *Thread) {
	if t.inSub {
		t.inSub = false
		removeEntry(&t.grp.q, t)
		return
	}
	removeEntry(&e.comp, t)
}

// removeEntry deletes t's entry from q. Completion heaps hold a handful of
// entries (at most one per active thread), so a scan finds it.
func removeEntry(q *ordHeap[compEntry], t *Thread) {
	for i := range q.a {
		if q.a[i].t == t {
			q.removeAt(i)
			return
		}
	}
	panic(fmt.Sprintf("sim: no completion entry for thread %q", t.name))
}

// start is activate's arithmetic without the push: the thread's stint
// begins at the current credit and the runnable-set aggregates count it.
func (e *Engine) start(t *Thread) {
	t.active = true
	t.startS = e.vs
	t.finishS = e.vs + t.remaining
	e.runCount++
	e.sumStartS += t.startS
}

// deactivate removes a thread from the runnable set, materializing the CPU
// it consumed during this stint from the service-credit delta. The caller
// decides what becomes of t.remaining (zero on completion/abandon, the
// residual finishS−S on block) and of its completion entry (popped on
// completion, removed on release, kept by a group freeze to re-key at thaw).
func (e *Engine) deactivate(t *Thread) {
	delta := e.vs - t.startS
	if delta < 0 {
		delta = 0
	}
	t.cpu += delta
	e.cpuBase += delta
	e.runCount--
	e.sumStartS -= t.startS
	if e.runCount == 0 {
		// Snap the aggregate at quiescent points so float residue from the
		// add/subtract stream cannot drift across busy periods.
		e.sumStartS = 0
	}
	t.active = false
}

// nextComp returns the heap whose top is the earliest completion, in
// (finishS, id) order, across the engine heap and every thawed group's
// sub-heap; nil when none holds one.
func (e *Engine) nextComp() *ordHeap[compEntry] {
	var best *ordHeap[compEntry]
	if e.comp.len() > 0 {
		best = &e.comp
	}
	for g := e.groups; g != nil; g = g.next {
		if g.frozen || len(g.q.a) == 0 {
			continue
		}
		if best == nil || g.q.a[0].lessThan(best.a[0]) {
			best = &g.q
		}
	}
	return best
}

// collect takes a due entry's quantum out of the runnable set and queues its
// thread for dispatch. A gang entry expands into every member still running
// the gang quantum, in id order.
func (e *Engine) collect(en compEntry) {
	t := en.t
	if !t.lead {
		e.deactivate(t)
		t.remaining = 0
		e.batch = append(e.batch, t)
		return
	}
	g := t.grp
	for _, m := range g.members {
		if m.inGang {
			m.inGang = false
			e.deactivate(m)
			m.remaining = 0
			e.batch = append(e.batch, m)
		}
	}
	g.gangLive = 0
}

// Step advances the simulation to the next event (quantum completion or timer
// expiry) and dispatches callbacks. It returns false when the simulation is
// quiescent: no runnable threads and no pending timers.
func (e *Engine) Step() bool {
	if e.runCount == 0 {
		at, ok := e.nextTimerAt()
		if !ok {
			return false
		}
		// Idle machine: jump straight to the next timer.
		if at > e.now {
			e.now = at
		}
		if e.now >= e.nextSample {
			e.crossSamples()
		}
		e.fireTimers()
		e.mutated()
		e.events++
		return true
	}

	rate := e.rateFor(e.runCount)

	// Earliest quantum completion: the earliest top across the completion
	// queues completes when S reaches its credit.
	q := e.nextComp()
	if q == nil {
		panic("sim: runnable threads without completion entries")
	}
	dt := (q.a[0].finishS - e.vs) / rate
	// Earliest timer.
	if at, ok := e.nextTimerAt(); ok {
		if d := at - e.now; d < dt {
			dt = d
		}
	}
	if dt < 0 {
		dt = 0
	}

	// Advance the segment: every active thread's progress is implied by the
	// credit advance; nothing per-thread is touched.
	e.now += dt
	e.vs += dt * rate
	if e.now >= e.nextSample {
		e.crossSamples()
	}

	// Collect quantum completions: every entry whose credit is reached,
	// merged across the queues in (finishS, id) order so the deactivations —
	// and the float sums they feed — run in one fixed order.
	e.batch = e.batch[:0]
	for q := e.nextComp(); q != nil; q = e.nextComp() {
		if q.a[0].finishS > e.vs+timeEps {
			break
		}
		e.collect(q.pop())
	}
	// Dispatch in thread-creation order, matching an O(T) rescan of the
	// threads (heap order breaks credit ties by id but interleaves distinct credits
	// within timeEps). Batches are tiny; insertion sort, no allocation.
	for i := 1; i < len(e.batch); i++ {
		for j := i; j > 0 && e.batch[j].id < e.batch[j-1].id; j-- {
			e.batch[j], e.batch[j-1] = e.batch[j-1], e.batch[j]
		}
	}
	// A completion callback may block a later thread in this same batch (a
	// stop-the-world pause beginning at the very instant that thread's
	// quantum also completed): such a thread must stay blocked — only
	// clobber Runnable state — but its completion still fires, since the
	// quantum genuinely finished. A callback may also Abandon/Finish a later
	// thread, which clears its onDone and thereby cancels the completion.
	for _, t := range e.batch {
		if t.state == StateRunnable {
			t.state = StateIdle
		}
		done := t.onDone
		t.onDone = nil
		if done != nil {
			done()
		}
	}
	e.fireTimers()
	e.mutated()
	e.events++
	return true
}

// Run steps the simulation until it is quiescent. It returns an error if the
// event limit is exceeded.
func (e *Engine) Run() error {
	for e.Step() {
		if e.events >= e.maxEv {
			return fmt.Errorf("sim: event limit %d exceeded at t=%dns", e.maxEv, e.Now())
		}
	}
	if e.recOn {
		e.rec.Record(obs.Event{
			Kind:  obs.KindQuiescent,
			TNS:   e.Now(),
			DurNS: e.now - e.lastQT,
			Value: float64(e.events - e.lastQE),
			Aux:   float64(e.timerFires - e.lastQF),
		})
		e.lastQT, e.lastQE, e.lastQF = e.now, e.events, e.timerFires
	}
	return nil
}
