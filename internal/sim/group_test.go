package sim

import (
	"fmt"
	"testing"
)

// heapLens returns the length of every completion heap.
func heapLens(e *Engine) (lens []int) {
	lens = append(lens, e.comp.len())
	for g := e.groups; g != nil; g = g.next {
		lens = append(lens, g.q.len())
	}
	return lens
}

// auditQueues checks the completion queues' one invariant: they hold exactly
// one live entry per quantum in flight. Every entry must belong to an active
// thread, to a thread held by its frozen group's freeze (on that group's
// sub-heap), or to a gang lead whose quantum some member still runs; carry
// that thread's id and finishS; sit where t.inSub says; and respect heap
// order. Every active or frozen thread outside a gang quantum must own
// exactly one entry, every running gang exactly one, and a gang member none
// of its own.
func (e *Engine) auditQueues() error {
	owned := map[*Thread]int{}
	check := func(what string, q *ordHeap[compEntry], g *Group) error {
		for i, en := range q.a {
			t := en.t
			switch {
			case t.lead && t.grp.gangLive == 0:
				return fmt.Errorf("%s: entry %d is a finished gang's", what, i)
			case t.lead:
			case g != nil && g.frozen && !t.frozen:
				return fmt.Errorf("%s: entry %d belongs to %q, which the freeze does not hold", what, i, t.name)
			case (g == nil || !g.frozen) && !t.active:
				return fmt.Errorf("%s: entry %d belongs to %s thread %q with no quantum in flight", what, i, t.state, t.name)
			}
			if t.inSub != (g != nil) || (g != nil && t.grp != g) {
				return fmt.Errorf("%s: entry %d of %q is not where its inSub flag says", what, i, t.name)
			}
			if en.id != t.id || en.finishS != t.finishS {
				return fmt.Errorf("%s: entry %d keyed (%v, %d), thread %q finishes at (%v, %d)",
					what, i, en.finishS, en.id, t.name, t.finishS, t.id)
			}
			if i > 0 && en.lessThan(q.a[(i-1)/2]) {
				return fmt.Errorf("%s: entry %d sorts before its parent", what, i)
			}
			owned[t]++
		}
		return nil
	}
	if err := check("engine heap", &e.comp, nil); err != nil {
		return err
	}
	for g := e.groups; g != nil; g = g.next {
		if err := check(fmt.Sprintf("sub-heap of group led by thread %d", g.lead.id), &g.q, g); err != nil {
			return err
		}
		if want := min(g.gangLive, 1); owned[&g.lead] != want {
			return fmt.Errorf("gang led by thread %d: %d entries with %d members running, want %d",
				g.lead.id, owned[&g.lead], g.gangLive, want)
		}
	}
	for _, t := range e.threads {
		want := 0
		if (t.active || t.frozen) && !t.inGang {
			want = 1
		}
		if owned[t] != want {
			return fmt.Errorf("thread %q (%s, active %v, frozen %v, in gang %v) owns %d entries, want %d",
				t.name, t.state, t.active, t.frozen, t.inGang, owned[t], want)
		}
	}
	return nil
}

// Freezing and thawing M runnable members costs no heap operation: every
// queue keeps its length, the audit passes, and the thawed sub-heap holds
// one live, re-keyed entry per member. A gang Exec adds exactly one entry.
func TestGroupFreezeThawLeavesHeapsExact(t *testing.T) {
	const M = 12
	e := NewEngine(4, nil)
	e.NewThread("other").Exec(1e6, nil)
	mut := e.NewGroup()
	for i := 0; i < M; i++ {
		th := e.NewThread(fmt.Sprintf("m%d", i))
		mut.Add(th)
		th.Exec(float64(1e5+1000*i), nil)
	}
	gang := e.NewGroup()
	for i := 0; i < 4; i++ {
		gang.Add(e.NewThread(fmt.Sprintf("stw%d", i)))
	}

	lens0 := heapLens(e)
	checked := false
	e.After(5000, func() {
		mut.Block()
		if lens := heapLens(e); fmt.Sprint(lens) != fmt.Sprint(lens0) {
			t.Errorf("after Block: lengths %v, before %v", lens, lens0)
		}
		if err := e.auditQueues(); err != nil {
			t.Errorf("after Block: %v", err)
		}
		for _, m := range mut.Members() {
			if m.State() != StateBlocked {
				t.Errorf("%s is %s after Block", m.Name(), m.State())
			}
		}
		gang.Exec(2000, nil)
		if lens := heapLens(e); total(lens) != total(lens0)+1 {
			t.Errorf("gang Exec: %d entries, want %d", total(lens), total(lens0)+1)
		}
		e.After(3000, func() {
			before := heapLens(e)
			mut.Unblock()
			if lens := heapLens(e); fmt.Sprint(lens) != fmt.Sprint(before) {
				t.Errorf("after Unblock: lengths %v, before %v", lens, before)
			}
			if mut.q.len() != M {
				t.Errorf("thawed sub-heap holds %d entries, want %d", mut.q.len(), M)
			}
			if err := e.auditQueues(); err != nil {
				t.Errorf("after Unblock: %v", err)
			}
			checked = true
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the thaw check never ran")
	}
}

func total(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}

// The gang quantum completes as one event that dispatches every member in id
// order; a member released mid-quantum drops out without ending the others'.
func TestGangExecCompletesTogether(t *testing.T) {
	e := NewEngine(2, nil)
	g := e.NewGroup()
	var ths []*Thread
	for i := 0; i < 3; i++ {
		th := e.NewThread(fmt.Sprintf("stw%d", i))
		g.Add(th)
		ths = append(ths, th)
	}
	var done []float64
	g.Exec(600, func() { done = append(done, e.NowF()) })
	e.After(100, ths[1].Abandon)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Three share 2 CPUs for 100ns (66.7 CPU-ns each), then two run alone:
	// the remaining 533.3 CPU-ns take another 533.3ns.
	if len(done) != 2 || done[0] != done[1] || !propClose(done[0], 100+600-200.0/3) {
		t.Fatalf("gang completions at %v, want two at %v", done, 100+600-200.0/3)
	}
	if got := ths[1].CPU(); !propClose(got, 200.0/3) {
		t.Errorf("abandoned member consumed %v CPU-ns, want %v", got, 200.0/3)
	}
	if e.comp.len() != 0 || g.q.len() != 0 {
		t.Errorf("queues hold %d and %d entries after the gang completed", e.comp.len(), g.q.len())
	}
}
