package sim

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
// timer deadlines, provided it injects before the cluster steps past t.

// NextEventAt returns the virtual time of the engine's next event — the
// earliest quantum completion or live timer — without advancing anything. It
// reports false when the engine is quiescent. The earliest completion is the
// minimum over the same queues Step consults (the engine heap and every
// thawed group's sub-heap). Stale completion entries and cancelled timers
// surfacing at their heap tops are discarded, exactly as Step would discard
// them, so the peek is allocation-free and does not perturb the subsequent
// step.
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

// clusterEntry is the event-heap entry for one engine: the engine's next
// event as of generation gen. An entry whose gen lags the engine's current
// generation is stale — superseded by a fresher push — and is discarded when
// it surfaces at the top, exactly like the timer queue's lazy cancellation.
// The key is (time, index), so exact-time ties resolve to the lowest engine
// index, as a linear scan over the engines would.
type clusterEntry struct {
	at  float64
	idx int32
	gen uint64
}

func (a clusterEntry) lessThan(b clusterEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.idx < b.idx
}

// Cluster interleaves the steps of several independent engines in global
// virtual-time order. All engines advance on one logical clock: Step always
// steps the engine whose next event is earliest (ties broken by lowest
// index), so across the whole cluster event times are processed in
// non-decreasing order. Engines may still be driven directly between cluster
// steps (scheduling timers, injecting work, reading clocks).
//
// The cluster maintains a min-heap of (next-event time, engine index)
// entries so Peek costs O(log N) amortized instead of a linear scan's O(N):
// every engine state change bumps the engine's generation counter and marks
// it dirty in its cluster, Peek re-derives dirty engines' entries before
// reading the top, and entries stamped with an older generation are popped
// as stale when they surface (or swept in bulk once they outnumber live
// ones). An engine that went quiescent carries no entry; the dirty mark from
// the timer arming that wakes it (e.g. a fleet driver injecting an arrival)
// is what resurfaces it. The package tests keep the O(N) scan as the
// differential oracle.
type Cluster struct {
	engines []*Engine

	heap     ordHeap[clusterEntry]
	dirty    []int32 // engines whose entry must be re-derived before peeking
	isDirty  []bool
	entryGen []uint64 // generation of engine i's live entry; 0 = none pushed
	stale    int      // superseded entries awaiting lazy discard or sweep
}

// NewCluster builds a cluster over the given engines. The slice is retained;
// indices into it identify engines in Peek/Step results. Each engine notifies
// the cluster of state changes, so an engine may belong to at most one
// cluster at a time.
func NewCluster(engines ...*Engine) *Cluster {
	c := &Cluster{
		engines:  engines,
		dirty:    make([]int32, 0, len(engines)),
		isDirty:  make([]bool, len(engines)),
		entryGen: make([]uint64, len(engines)),
	}
	// One live entry per engine plus slack for lazily-invalidated stale ones
	// before the bulk sweep: sized here so steady-state stepping never grows
	// the heap.
	c.heap.a = make([]clusterEntry, 0, 2*len(engines))
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

// markDirty queues engine i for re-derivation at the next Peek. Duplicate
// marks between peeks collapse, so a step that bumps the generation many
// times (timer fires, thread transitions) costs one queue slot.
func (c *Cluster) markDirty(i int32) {
	if c.isDirty[i] {
		return
	}
	c.isDirty[i] = true
	c.dirty = append(c.dirty, i)
}

// refresh re-derives the next-event entries of every dirty engine.
func (c *Cluster) refresh() {
	for len(c.dirty) > 0 {
		i := c.dirty[len(c.dirty)-1]
		c.dirty = c.dirty[:len(c.dirty)-1]
		c.isDirty[i] = false
		e := c.engines[i]
		if c.entryGen[i] != 0 {
			// The previous entry for this engine is now superseded.
			c.stale++
		}
		if at, alive := e.NextEventAt(); alive {
			c.heap.push(clusterEntry{at: at, idx: i, gen: e.gen})
			c.entryGen[i] = e.gen
		} else {
			c.entryGen[i] = 0
		}
	}
	// Sweep superseded entries in bulk once they outnumber live ones, so an
	// engine whose next event keeps moving earlier cannot bury the heap in
	// stale entries that never surface.
	if c.heap.len() >= 64 && c.stale*2 > c.heap.len() {
		c.heap.filter(func(en clusterEntry) bool {
			return en.gen == c.engines[en.idx].gen && en.gen == c.entryGen[en.idx]
		})
		c.stale = 0
	}
}

// Peek returns the index and next-event time of the engine the next Step
// would advance: the earliest next event across the cluster, lowest engine
// index on exact ties. ok is false when every engine is quiescent.
func (c *Cluster) Peek() (idx int, at float64, ok bool) {
	c.refresh()
	for c.heap.len() > 0 {
		top := c.heap.peek()
		if top.gen != c.engines[top.idx].gen {
			// Superseded: a fresher entry (or none, if the engine went
			// quiescent) was pushed by a later refresh.
			c.heap.pop()
			c.stale--
			continue
		}
		return int(top.idx), top.at, true
	}
	return -1, 0, false
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
