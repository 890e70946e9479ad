package sim

// Timer subsystem.
//
// Timers live in an ordHeap of small value entries ordered by (deadline,
// sequence), so same-instant timers fire in creation order. A timer cannot
// be cancelled: every entry on the heap is live and fires exactly once, so
// the heap never holds an entry it must skip. A caller that may no longer
// want a callback checks its own state when the callback runs.

// timerEntry is the heap entry for one scheduled callback.
type timerEntry struct {
	at  float64
	seq int64 // arming order, the same-instant FIFO tie-break
	fn  func()
}

func (a timerEntry) lessThan(b timerEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// After schedules fn to run at now+d.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, fn)
}

// At schedules fn at the absolute virtual time t (a t already in the past
// fires at now). Unlike After(t-NowF()), the deadline is stored exactly as
// given — no relative round-trip through floating point — so a caller can
// reproduce a precomputed schedule bit-for-bit while arming timers one at a
// time.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.schedule(t, fn)
}

func (e *Engine) schedule(at float64, fn func()) {
	if fn == nil {
		panic("sim: nil timer callback")
	}
	e.timerSeq++
	e.timers.push(timerEntry{at: at, seq: e.timerSeq, fn: fn})
	e.mutated()
}

// nextTimerAt returns the deadline of the earliest timer.
func (e *Engine) nextTimerAt() (float64, bool) {
	if e.timers.len() == 0 {
		return 0, false
	}
	return e.timers.peek().at, true
}

// fireTimers dispatches every timer due at or before now, in (time,
// creation) order. Callbacks may schedule further timers; those are honoured
// too if already due.
func (e *Engine) fireTimers() {
	for e.timers.len() > 0 && e.timers.peek().at <= e.now+timeEps {
		fn := e.timers.pop().fn
		e.timerFires++
		fn()
	}
}
