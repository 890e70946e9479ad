package sim

import "fmt"

// State describes what a thread is doing.
type State uint8

// Thread states.
const (
	StateIdle     State = iota // created or between quanta; consumes nothing
	StateRunnable              // executing a quantum, sharing the CPUs
	StateBlocked               // suspended mid-quantum (e.g. by a STW pause)
	StateDone                  // finished; will never run again
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateRunnable:
		return "runnable"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Thread is a logical thread of execution in the simulated machine: a mutator
// worker, a GC worker, or a background task. Threads execute CPU quanta; the
// engine accounts their CPU time toward the task clock.
//
// Accounting is lazy: while a quantum is in flight ("active"), cpu and
// remaining are implied by the engine's service credit (cpu + S − startS
// consumed, finishS − S left) and materialized only when the thread leaves
// the runnable set or an accessor is called.
type Thread struct {
	id         int32
	epoch      uint32 // bumped when leaving the runnable set; stales heap entries
	state      State
	active     bool // quantum in flight, counted in aggregates
	held       bool // blocked by its group's Block, awaiting the group's Unblock
	frozen     bool // held mid-quantum, entry kept for re-keying
	inGang     bool // running its group's gang quantum
	lead       bool // a group's gang sentinel, never registered with the engine
	inSub      bool // the entry is on the group's sub-heap
	grp        *Group
	name       string
	eng        *Engine
	remaining  float64 // CPU ns left in the current quantum (stale while active)
	startS     float64 // service credit when the current stint began
	finishS    float64 // service credit at which the current quantum completes
	onDone     func()
	cpu        float64 // materialized CPU ns consumed (see CPU)
	kernelFrac float64 // fraction of this thread's CPU attributed to kernel mode
	blockedAt  float64 // wall time at which the thread last blocked
	blockedNS  float64 // cumulative wall time spent blocked
}

// NewThread registers a new logical thread with the engine. Threads start
// idle.
func (e *Engine) NewThread(name string) *Thread {
	t := &Thread{id: int32(len(e.threads)), name: name, eng: e}
	e.threads = append(e.threads, t)
	return t
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// State returns the thread's current state.
func (t *Thread) State() State { return t.state }

// CPU returns the total CPU nanoseconds this thread has consumed, including
// the in-flight portion of a quantum still executing.
func (t *Thread) CPU() float64 {
	if t.active {
		return t.cpu + (t.eng.vs - t.startS)
	}
	return t.cpu
}

// KernelCPU returns the portion of this thread's CPU time attributed to
// kernel mode, per the fraction set with SetKernelFraction.
func (t *Thread) KernelCPU() float64 { return t.CPU() * t.kernelFrac }

// BlockedTime returns the cumulative wall-clock time this thread has spent in
// StateBlocked.
func (t *Thread) BlockedTime() float64 { return t.blockedNS }

// SetKernelFraction declares what fraction of this thread's CPU time should
// be attributed to kernel mode (PKP accounting). It is a static property of
// the kind of work the thread does, e.g. lock-heavy or I/O-heavy code.
func (t *Thread) SetKernelFraction(f float64) {
	if f < 0 || f > 1 {
		panic(fmt.Sprintf("sim: kernel fraction %v out of [0,1]", f))
	}
	t.kernelFrac = f
}

// Exec schedules the thread to consume cpuNS nanoseconds of CPU and then call
// done. The thread must be idle. Quanta shorter than 1ns are rounded up so a
// zero-cost callback chain cannot stall the clock.
func (t *Thread) Exec(cpuNS float64, done func()) {
	if t.state != StateIdle {
		panic(fmt.Sprintf("sim: Exec on %s thread %q", t.state, t.name))
	}
	if cpuNS < 1 {
		cpuNS = 1
	}
	t.remaining = cpuNS
	t.onDone = done
	t.state = StateRunnable
	t.eng.activate(t)
	t.eng.mutated()
}

// releaseQuantum takes an active thread out of the runnable set mid-quantum:
// consumed CPU is materialized, the residual work is captured in remaining,
// and the completion entry is dropped (see unqueue). A thread held by its
// group's freeze leaves the freeze, and its kept entry is dropped the same
// way. A no-op for other threads (idle, or a quantum whose completion has
// already been collected this event).
func (t *Thread) releaseQuantum() {
	t.held = false
	e := t.eng
	switch {
	case t.active:
		e.deactivate(t)
		t.remaining = t.finishS - e.vs
		if t.remaining < 0 {
			t.remaining = 0
		}
	case t.frozen:
		t.frozen = false
	default:
		return
	}
	if !t.inGang {
		e.unqueue(t)
		return
	}
	// The gang entry stays live while any member still runs the quantum.
	t.inGang = false
	g := t.grp
	g.gangLive--
	if g.gangLive == 0 {
		g.lead.epoch++
		e.unqueue(&g.lead)
	}
}

// Block suspends a runnable thread mid-quantum, preserving its remaining
// work. Blocking an idle thread pins it idle-blocked so a later Exec must
// wait for Unblock; blocking a blocked or done thread panics.
func (t *Thread) Block() {
	switch t.state {
	case StateRunnable, StateIdle:
		t.releaseQuantum()
		t.state = StateBlocked
		t.blockedAt = t.eng.now
		t.eng.mutated()
	default:
		panic(fmt.Sprintf("sim: Block on %s thread %q", t.state, t.name))
	}
}

// Unblock resumes a blocked thread. If it had remaining quantum work it
// becomes runnable again; otherwise it returns to idle.
func (t *Thread) Unblock() {
	if t.state != StateBlocked {
		panic(fmt.Sprintf("sim: Unblock on %s thread %q", t.state, t.name))
	}
	t.blockedNS += t.eng.now - t.blockedAt
	if t.held {
		// Unblocked on its own, the thread leaves its group's freeze.
		t.releaseQuantum()
	}
	if t.remaining > 0 {
		t.state = StateRunnable
		t.eng.activate(t)
	} else {
		t.state = StateIdle
	}
	t.eng.mutated()
}

// Abandon discards the thread's current quantum, returning it to idle
// without running the completion callback. CPU already consumed stays
// accounted. It is how a cancelled task (e.g. an aborted concurrent GC
// cycle) releases its worker.
func (t *Thread) Abandon() {
	if t.state == StateDone {
		panic(fmt.Sprintf("sim: Abandon on done thread %q", t.name))
	}
	if t.state == StateBlocked {
		t.blockedNS += t.eng.now - t.blockedAt
	}
	t.releaseQuantum()
	t.state = StateIdle
	t.onDone = nil
	t.remaining = 0
	t.eng.mutated()
}

// Finish marks the thread permanently done. Any in-flight quantum is
// abandoned without its completion callback running; an in-flight blocked
// interval is credited to BlockedTime, as Abandon does.
func (t *Thread) Finish() {
	if t.state == StateBlocked {
		t.blockedNS += t.eng.now - t.blockedAt
	}
	t.releaseQuantum()
	t.state = StateDone
	t.onDone = nil
	t.remaining = 0
	t.eng.mutated()
}

// Threads returns all threads registered with the engine, in creation order.
func (e *Engine) Threads() []*Thread { return e.threads }
