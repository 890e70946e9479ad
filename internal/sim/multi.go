package sim

import "math"

// Multi-instance stepping.
//
// A fleet simulation runs N independent engines — one per replica, each with
// its own heap, collector and thread population — on one shared virtual
// clock. Nothing in the engines is shared; the Cluster merely interleaves
// their steps in global time order, stepping whichever engine's next event
// is earliest. Because an engine's clock only advances when it is stepped,
// the sequence of step times is non-decreasing and every engine's Now stays
// at or before the time of the last step taken — which is what lets a driver
// inject work (an arriving request) at time t into any engine with exact
// timer deadlines, provided it injects before the cluster steps past t. The
// cluster holds one slot per engine in a MinIndex, re-keyed in place when an
// engine changes.

// NextEventAt returns the virtual time of the engine's next event — the
// earliest quantum completion or timer — without advancing anything. It
// reports false when the engine is quiescent. The earliest completion is the
// minimum over the same queues Step consults (the engine heap and every
// thawed group's sub-heap). Every queue holds only live entries, so the peek
// is a pure read of their tops.
func (e *Engine) NextEventAt() (float64, bool) {
	if e.runCount == 0 {
		at, ok := e.nextTimerAt()
		if !ok {
			return 0, false
		}
		if at < e.now {
			at = e.now
		}
		return at, true
	}

	q := e.nextComp()
	if q == nil {
		panic("sim: runnable threads without completion entries")
	}
	dt := (q.a[0].finishS - e.vs) / e.rateFor(e.runCount)
	if at, ok := e.nextTimerAt(); ok {
		if d := at - e.now; d < dt {
			dt = d
		}
	}
	if dt < 0 {
		dt = 0
	}
	return e.now + dt, true
}

// Cluster interleaves the steps of several independent engines in global
// virtual-time order. All engines advance on one logical clock: Step always
// steps the engine whose next event is earliest (ties broken by lowest
// index), so across the whole cluster event times are processed in
// non-decreasing order. Engines may still be driven directly between cluster
// steps (scheduling timers, injecting work, reading clocks).
//
// The cluster keeps a MinIndex over the engines' next-event times, so Peek
// costs O(log N) instead of a linear scan's O(N). A quiescent engine is
// keyed +Inf (so an event armed at +Inf never runs in a cluster). Every
// engine state change marks the engine dirty in its cluster, and Peek
// re-reads the dirty engines' next events into the index before reading its
// minimum. The timer arming that wakes a quiescent engine (e.g. a fleet
// driver injecting an arrival) marks it dirty like any other change. The
// package tests keep the O(N) scan as the differential oracle.
type Cluster struct {
	engines []*Engine

	next    *MinIndex[float64] // engine i's next-event time, +Inf if quiescent
	dirty   []int32            // engines whose time must be re-read before peeking
	isDirty []bool
}

// NewCluster builds a cluster over the given engines. The slice is retained;
// indices into it identify engines in Peek/Step results. Each engine notifies
// the cluster of state changes, so an engine may belong to at most one
// cluster at a time.
func NewCluster(engines ...*Engine) *Cluster {
	c := &Cluster{
		engines: engines,
		next:    NewMinIndex(len(engines), math.Inf(1)),
		dirty:   make([]int32, 0, len(engines)),
		isDirty: make([]bool, len(engines)),
	}
	for i, e := range engines {
		if e.cl != nil && e.cl != c {
			panic("sim: engine already belongs to another cluster")
		}
		e.cl, e.clIdx = c, int32(i)
		c.markDirty(int32(i))
	}
	return c
}

// Len returns the number of engines in the cluster.
func (c *Cluster) Len() int { return len(c.engines) }

// Engine returns the i-th engine.
func (c *Cluster) Engine(i int) *Engine { return c.engines[i] }

// markDirty queues engine i for a re-read at the next Peek. Duplicate marks
// between peeks collapse, so a step that changes the engine many times
// (timer fires, thread transitions) costs one queue slot.
func (c *Cluster) markDirty(i int32) {
	if c.isDirty[i] {
		return
	}
	c.isDirty[i] = true
	c.dirty = append(c.dirty, i)
}

// Peek returns the index and next-event time of the engine the next Step
// would advance: the earliest next event across the cluster, lowest engine
// index on exact ties. ok is false when every engine is quiescent.
func (c *Cluster) Peek() (idx int, at float64, ok bool) {
	for _, i := range c.dirty {
		c.isDirty[i] = false
		at, alive := c.engines[i].NextEventAt()
		if !alive {
			at = math.Inf(1)
		}
		c.next.Set(int(i), at)
	}
	c.dirty = c.dirty[:0]
	idx = c.next.Min()
	if idx < 0 {
		return -1, 0, false
	}
	at = c.next.Key(idx)
	if math.IsInf(at, 1) {
		return -1, 0, false
	}
	return idx, at, true
}

// Step advances the globally earliest engine by one event and returns its
// index; ok is false (and nothing advances) when the whole cluster is
// quiescent.
func (c *Cluster) Step() (idx int, ok bool) {
	idx, _, ok = c.Peek()
	if !ok {
		return -1, false
	}
	c.engines[idx].Step()
	return idx, true
}
