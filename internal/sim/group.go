package sim

import "fmt"

// Group is a set of threads the engine schedules as a unit, for the two
// operations a stop-the-world collector performs on whole thread
// populations: freezing every mutator (Block/Unblock) and running a gang of
// workers on one shared quantum (Exec). The group owns a completion
// sub-heap holding its members' entries, so neither operation costs a heap
// push or pop per member. The sub-heap never holds a stale entry: a member
// released mid-quantum has its entry removed at once.
//
//   - Block freezes the group: every runnable member is blocked exactly as
//     Thread.Block would block it, in member order, but its completion entry
//     stays in the sub-heap and the whole sub-heap drops out of next-event
//     lookup. Unblock restarts each held member exactly as Thread.Unblock
//     would (finishS = S + remaining) and re-keys its entry in place.
//   - Exec starts the same quantum on every member under a single entry,
//     which expands into the live members, in id order, when it completes.
//
// A member may Exec while its group is frozen; that entry goes on the engine
// heap, and the next Block moves it into the sub-heap. Thread.Block,
// Unblock, Abandon and Finish keep working on a member: a member released
// on its own leaves the freeze or the gang quantum, and the gang entry stays
// live while any member still runs it.
type Group struct {
	eng      *Engine
	members  []*Thread // in id order
	q        ordHeap[compEntry]
	frozen   bool
	gangLive int    // members still running the gang quantum
	lead     Thread // gang sentinel: its epoch stamps the gang entry
	next     *Group // the engine's next group
}

// NewGroup returns a thawed group of threads on e with members ts (see Add).
func (e *Engine) NewGroup(ts ...*Thread) *Group {
	g := &Group{eng: e, next: e.groups}
	g.lead = Thread{lead: true, grp: g, eng: e}
	e.groups = g
	if len(ts) > 0 {
		g.Add(ts...)
	}
	return g
}

// Add makes ts members. A thread belongs to at most one group and must be
// idle when it joins. Adding every member in one call sizes the group's
// storage once.
func (g *Group) Add(ts ...*Thread) {
	if len(ts) == 0 {
		return
	}
	for _, t := range ts {
		if t.grp != nil || t.eng != g.eng {
			panic(fmt.Sprintf("sim: thread %q cannot join this group", t.name))
		}
		if t.state != StateIdle {
			panic(fmt.Sprintf("sim: Add of %s thread %q", t.state, t.name))
		}
		t.grp = g
	}
	g.members = append(g.members, ts...)
	for i := 1; i < len(g.members); i++ {
		for j := i; j > 0 && g.members[j].id < g.members[j-1].id; j-- {
			g.members[j], g.members[j-1] = g.members[j-1], g.members[j]
		}
	}
	g.lead.id = g.members[0].id
	// The sub-heap holds at most one entry per member plus the gang entry;
	// sized here, in step with the members slice, a run never grows it.
	if cap(g.q.a) <= len(g.members) {
		a := make([]compEntry, len(g.q.a), cap(g.members)+1)
		copy(a, g.q.a)
		g.q.a = a
	}
}

// Members returns the group's threads in id order.
func (g *Group) Members() []*Thread { return g.members }

// Block freezes the group: every runnable member is blocked mid-quantum,
// keeping its remaining work, as Thread.Block does. Idle and already
// blocked members are left alone. Blocking a frozen group panics.
func (g *Group) Block() {
	if g.frozen {
		panic("sim: Block on a frozen group")
	}
	e := g.eng
	g.frozen = true
	for _, t := range g.members {
		if t.state != StateRunnable {
			continue
		}
		if t.active {
			e.freeze(t)
		}
		t.state = StateBlocked
		t.blockedAt = e.now
		t.held = true
	}
	e.mutated()
}

// Unblock thaws the group: every member Block blocked, and nothing released
// since, resumes as Thread.Unblock resumes it — runnable with its remaining
// work, or idle if none was left. Unblocking a thawed group panics.
func (g *Group) Unblock() {
	if !g.frozen {
		panic("sim: Unblock on a thawed group")
	}
	e := g.eng
	g.frozen = false
	for _, t := range g.members {
		if !t.held {
			continue
		}
		t.held = false
		t.blockedNS += e.now - t.blockedAt
		if t.remaining > 0 {
			t.state = StateRunnable
			e.thaw(t)
		} else {
			t.state = StateIdle
			t.releaseQuantum()
		}
	}
	g.rekey()
	e.mutated()
}

// Exec starts a cpuNS quantum on every member, each calling done when its
// own quantum completes (a member released mid-quantum never calls it).
// Every member must be idle. Quanta shorter than 1ns are rounded up, as in
// Thread.Exec.
func (g *Group) Exec(cpuNS float64, done func()) {
	if cpuNS < 1 {
		cpuNS = 1
	}
	for _, t := range g.members {
		if t.state != StateIdle {
			panic(fmt.Sprintf("sim: Exec on %s thread %q", t.state, t.name))
		}
		t.remaining = cpuNS
		t.onDone = done
		t.state = StateRunnable
	}
	g.eng.activateGang(g)
	g.eng.mutated()
}

// activateGang enters every member into the runnable set, with activate's
// arithmetic in member order, under one completion entry keyed by the first
// member's id. The entry goes wherever a member's would: the sub-heap, or
// the engine heap while the group is frozen.
func (e *Engine) activateGang(g *Group) {
	if len(g.members) == 0 {
		return
	}
	for _, t := range g.members {
		e.start(t)
		t.inGang = true
	}
	g.gangLive = len(g.members)
	g.lead.finishS = g.members[0].finishS
	e.enqueue(&g.lead)
}

// freeze is Block's per-member step: deactivate's arithmetic and the
// residual work, as Thread.Block computes them, but the completion entry is
// kept. An entry on the engine heap (pushed while the group was frozen)
// moves into the sub-heap, so thaw finds every entry of a held member there.
func (e *Engine) freeze(t *Thread) {
	e.settle(t)
	t.remaining = t.finishS - e.vs
	if t.remaining < 0 {
		t.remaining = 0
	}
	t.frozen = true
	o := t
	if t.inGang {
		o = &t.grp.lead
	}
	if !o.inSub {
		o.epoch++
		e.orphanEntry()
		o.inSub = true
		t.grp.q.push(compEntry{finishS: o.finishS, id: o.id, epoch: o.epoch, t: o})
	}
}

// thaw is Unblock's per-member step: activate's arithmetic, finishS = S +
// remaining exactly as Thread.Unblock computes it, with the kept entry
// re-keyed afterwards by rekey.
func (e *Engine) thaw(t *Thread) {
	t.frozen = false
	e.start(t)
	if t.inGang {
		t.grp.lead.finishS = t.finishS
	}
}

// rekey rewrites every sub-heap entry's key to its thawed thread's new
// finishS. The rewrite is the map x ↦ S_u + (x − S_b), with S_b and S_u the
// credit at Block and Unblock: monotone, so the heap order survives it,
// except that two keys may round to one value and leave the id tie-break to
// repair. heapify does that in O(n) comparisons and, on a heap already in
// order, moves nothing.
func (g *Group) rekey() {
	for i := range g.q.a {
		en := &g.q.a[i]
		en.finishS = en.t.finishS
	}
	g.q.heapify()
}

// remove deletes t's entry (t may be the gang sentinel) from the sub-heap.
func (g *Group) remove(t *Thread) {
	for i := range g.q.a {
		if g.q.a[i].t == t {
			g.q.removeAt(i)
			t.inSub = false
			return
		}
	}
	panic(fmt.Sprintf("sim: no sub-heap entry for thread %q", t.name))
}
