package sim

import (
	"fmt"
	"math"
)

// The reference engine: the original O(threads)-per-event scheduler, kept as
// the correctness oracle for the virtual-service-time core. Each step it
// rebuilds the runnable set by scanning all threads, scans again for the
// earliest quantum completion, and eagerly updates every runnable thread's
// cpu/remaining for the segment. It has its own threads, groups and timer
// queue and shares no scheduling, accounting or timer code with Engine (only
// State, timeEps and the CapacityFunc contract), so a fault in the engine's
// lazy accounting, completion heaps, group freeze bookkeeping or timer heap
// shows up as a divergence instead of being replicated on both sides. The
// differential tests drive both through the simAPI surface below and demand
// identical event traces and telemetry; BenchmarkEngineStepNaive quantifies
// the gap.

// simThread, simGroup and simAPI are the engine surface the differential
// tests drive. The production engine satisfies simAPI[*Thread, *Group,
// Timer]; the oracle satisfies simAPI[*refThread, *refGroup, *refTimer].
type simThread interface {
	Exec(cpuNS float64, done func())
	Block()
	Unblock()
	Abandon()
	Finish()
	State() State
	CPU() float64
	BlockedTime() float64
	isHeld() bool
}

type simGroup[T simThread] interface {
	Add(ts ...T)
	Block()
	Unblock()
	Exec(cpuNS float64, done func())
	isFrozen() bool
}

type simAPI[T simThread, G simGroup[T], M interface{ Cancel() }] interface {
	NewThread(name string) T
	NewGroup(ts ...T) G
	After(d float64, fn func()) M
	SetSampler(intervalNS float64, fn func(tNS float64))
	NowF() float64
	Run() error
	TaskClock() float64
	Events() int64
}

// Test-only views of production state the differential scripts branch on.
func (t *Thread) isHeld() bool  { return t.held }
func (g *Group) isFrozen() bool { return g.frozen }

// refEngine is the eager O(T) stepper.
type refEngine struct {
	now      float64
	capacity CapacityFunc
	threads  []*refThread
	timers   []*refTimer // pending timers, unordered
	timerSeq int64
	events   int64

	sampleEvery float64
	nextSample  float64
	onSample    func(tNS float64)

	// scratch reused across steps, so stepping allocates nothing.
	runnable []*refThread
	finished []*refThread
}

type refThread struct {
	id        int
	name      string
	eng       *refEngine
	grp       *refGroup
	state     State
	held      bool // blocked by its group's Block, awaiting the group's Unblock
	remaining float64
	cpu       float64
	onDone    func()
	blockedAt float64
	blockedNS float64
}

type refGroup struct {
	eng     *refEngine
	members []*refThread // in id order
	frozen  bool
}

type refTimer struct {
	at    float64
	seq   int64
	fn    func()
	eng   *refEngine
	armed bool // pending: neither fired nor cancelled
}

func newRefEngine(hw int, capacity CapacityFunc) *refEngine {
	if capacity == nil {
		capacity = func(n int) float64 { return float64(min(n, hw)) }
	}
	return &refEngine{capacity: capacity, nextSample: math.Inf(1)}
}

func (e *refEngine) NowF() float64 { return e.now }
func (e *refEngine) Events() int64 { return e.events }

func (e *refEngine) TaskClock() float64 {
	var sum float64
	for _, t := range e.threads {
		sum += t.cpu
	}
	return sum
}

func (e *refEngine) SetSampler(intervalNS float64, fn func(tNS float64)) {
	if fn == nil || intervalNS <= 0 {
		e.sampleEvery, e.onSample = 0, nil
		e.nextSample = math.Inf(1)
		return
	}
	e.sampleEvery, e.onSample = intervalNS, fn
	e.nextSample = (math.Floor(e.now/intervalNS) + 1) * intervalNS
}

func (e *refEngine) crossSamples() {
	for e.now >= e.nextSample {
		e.onSample(e.nextSample)
		e.nextSample += e.sampleEvery
	}
}

func (e *refEngine) After(d float64, fn func()) *refTimer {
	if fn == nil {
		panic("sim: nil timer callback")
	}
	e.timerSeq++
	tm := &refTimer{at: e.now + max(d, 0), seq: e.timerSeq, fn: fn, eng: e, armed: true}
	e.timers = append(e.timers, tm)
	return tm
}

func (tm *refTimer) Cancel() {
	if tm.armed {
		tm.armed = false
		tm.eng.dropTimer(tm)
	}
}

func (e *refEngine) dropTimer(tm *refTimer) {
	for i, p := range e.timers {
		if p == tm {
			e.timers = append(e.timers[:i], e.timers[i+1:]...)
			return
		}
	}
}

// nextTimer returns the pending timer first in (deadline, creation) order.
func (e *refEngine) nextTimer() *refTimer {
	var best *refTimer
	for _, tm := range e.timers {
		if best == nil || tm.at < best.at || (tm.at == best.at && tm.seq < best.seq) {
			best = tm
		}
	}
	return best
}

// fireTimers runs every timer due at or before now, including ones the
// callbacks arm that are already due.
func (e *refEngine) fireTimers() {
	for {
		tm := e.nextTimer()
		if tm == nil || tm.at > e.now+timeEps {
			return
		}
		tm.armed = false
		e.dropTimer(tm)
		tm.fn()
	}
}

func (e *refEngine) rateFor(n int) float64 {
	c := e.capacity(n)
	if c <= 0 || c > float64(n)+timeEps {
		panic(fmt.Sprintf("sim: invalid capacity %v for %d runnable threads", c, n))
	}
	return c / float64(n)
}

// Step is one step of the eager scheduler: O(T) scans plus a per-thread
// update of every runnable thread.
func (e *refEngine) Step() bool {
	e.runnable = e.runnable[:0]
	for _, t := range e.threads {
		if t.state == StateRunnable {
			e.runnable = append(e.runnable, t)
		}
	}

	if len(e.runnable) == 0 {
		tm := e.nextTimer()
		if tm == nil {
			return false
		}
		// Idle machine: jump straight to the next timer.
		if tm.at > e.now {
			e.now = tm.at
		}
		if e.now >= e.nextSample {
			e.crossSamples()
		}
		e.fireTimers()
		e.events++
		return true
	}

	rate := e.rateFor(len(e.runnable))

	// Earliest quantum completion under the current sharing rate.
	dt := math.Inf(1)
	for _, t := range e.runnable {
		if d := t.remaining / rate; d < dt {
			dt = d
		}
	}
	// Earliest timer.
	if tm := e.nextTimer(); tm != nil {
		if d := tm.at - e.now; d < dt {
			dt = d
		}
	}
	if dt < 0 {
		dt = 0
	}

	// Advance the segment, eagerly crediting every runnable thread.
	e.now += dt
	if e.now >= e.nextSample {
		e.crossSamples()
	}
	progress := dt * rate
	e.finished = e.finished[:0]
	for _, t := range e.runnable {
		t.cpu += progress
		t.remaining -= progress
		if t.remaining <= timeEps {
			t.remaining = 0
			e.finished = append(e.finished, t)
		}
	}

	// Dispatch quantum completions in thread-creation order, then timers
	// due at or before the new now. A callback may block a later thread of
	// this batch (it stays blocked, but its completion still fires) or
	// abandon or finish it (its completion is cancelled).
	for _, t := range e.finished {
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
	e.events++
	return true
}

func (e *refEngine) Run() error {
	for e.Step() {
	}
	return nil
}

func (e *refEngine) NewThread(name string) *refThread {
	t := &refThread{id: len(e.threads), name: name, eng: e}
	e.threads = append(e.threads, t)
	return t
}

func (t *refThread) State() State         { return t.state }
func (t *refThread) CPU() float64         { return t.cpu }
func (t *refThread) BlockedTime() float64 { return t.blockedNS }
func (t *refThread) isHeld() bool         { return t.held }

func (t *refThread) Exec(cpuNS float64, done func()) {
	if t.state != StateIdle {
		panic(fmt.Sprintf("sim: Exec on %s thread %q", t.state, t.name))
	}
	t.remaining = max(cpuNS, 1)
	t.onDone = done
	t.state = StateRunnable
}

func (t *refThread) Block() {
	if t.state != StateRunnable && t.state != StateIdle {
		panic(fmt.Sprintf("sim: Block on %s thread %q", t.state, t.name))
	}
	t.held = false
	t.state = StateBlocked
	t.blockedAt = t.eng.now
}

// resume ends a blocked interval: runnable again with the remaining work, or
// idle if none is left.
func (t *refThread) resume() {
	t.held = false
	t.blockedNS += t.eng.now - t.blockedAt
	if t.remaining > 0 {
		t.state = StateRunnable
	} else {
		t.state = StateIdle
	}
}

func (t *refThread) Unblock() {
	if t.state != StateBlocked {
		panic(fmt.Sprintf("sim: Unblock on %s thread %q", t.state, t.name))
	}
	t.resume()
}

// retire drops the current quantum without its completion callback,
// crediting an in-flight blocked interval.
func (t *refThread) retire(s State) {
	if t.state == StateBlocked {
		t.blockedNS += t.eng.now - t.blockedAt
	}
	t.held = false
	t.state = s
	t.onDone = nil
	t.remaining = 0
}

func (t *refThread) Abandon() {
	if t.state == StateDone {
		panic(fmt.Sprintf("sim: Abandon on done thread %q", t.name))
	}
	t.retire(StateIdle)
}

func (t *refThread) Finish() { t.retire(StateDone) }

func (e *refEngine) NewGroup(ts ...*refThread) *refGroup {
	g := &refGroup{eng: e}
	g.Add(ts...)
	return g
}

func (g *refGroup) isFrozen() bool { return g.frozen }

func (g *refGroup) Add(ts ...*refThread) {
	for _, t := range ts {
		if t.grp != nil || t.eng != g.eng {
			panic(fmt.Sprintf("sim: thread %q cannot join this group", t.name))
		}
		if t.state != StateIdle {
			panic(fmt.Sprintf("sim: Add of %s thread %q", t.state, t.name))
		}
		t.grp = g
		g.members = append(g.members, t)
	}
	for i := 1; i < len(g.members); i++ {
		for j := i; j > 0 && g.members[j].id < g.members[j-1].id; j-- {
			g.members[j], g.members[j-1] = g.members[j-1], g.members[j]
		}
	}
}

// Block blocks every runnable member, as Thread.Block would, and marks it
// held for the group's Unblock.
func (g *refGroup) Block() {
	if g.frozen {
		panic("sim: Block on a frozen group")
	}
	g.frozen = true
	for _, t := range g.members {
		if t.state == StateRunnable {
			t.state = StateBlocked
			t.blockedAt = g.eng.now
			t.held = true
		}
	}
}

// Unblock resumes every member still held by Block, as Thread.Unblock would.
func (g *refGroup) Unblock() {
	if !g.frozen {
		panic("sim: Unblock on a thawed group")
	}
	g.frozen = false
	for _, t := range g.members {
		if t.held {
			t.resume()
		}
	}
}

// Exec runs one quantum per member, exactly as if each member Exec'd it.
func (g *refGroup) Exec(cpuNS float64, done func()) {
	for _, t := range g.members {
		t.Exec(cpuNS, done)
	}
}
