package sim

import (
	"fmt"
	"testing"
)

// heapLens returns the length of every completion heap and the number of
// stale entries across them.
func heapLens(e *Engine) (lens []int, stale int) {
	lens = append(lens, e.comp.len())
	stale = e.staleComp
	for g := e.groups; g != nil; g = g.next {
		lens = append(lens, g.q.len())
		for _, en := range g.q.a {
			if en.epoch != en.t.epoch {
				stale++
			}
		}
	}
	return lens, stale
}

// checkLive fails unless every entry in q belongs to an active thread,
// carries its current finishS, and q is heap-ordered.
func checkLive(t *testing.T, what string, q *ordHeap[compEntry]) {
	t.Helper()
	for i, en := range q.a {
		if en.epoch != en.t.epoch || !en.t.active {
			t.Errorf("%s: entry %d is stale", what, i)
		}
		if en.finishS != en.t.finishS {
			t.Errorf("%s: entry %d keyed %v, thread finishes at %v", what, i, en.finishS, en.t.finishS)
		}
		if i > 0 && en.lessThan(q.a[(i-1)/2]) {
			t.Errorf("%s: entry %d sorts before its parent", what, i)
		}
	}
}

// Freezing and thawing M runnable members costs no heap operation: every
// queue keeps its length, no entry goes stale, and the thawed sub-heap holds
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

	lens0, _ := heapLens(e)
	checked := false
	e.After(5000, func() {
		mut.Block()
		lens, stale := heapLens(e)
		if fmt.Sprint(lens) != fmt.Sprint(lens0) || stale != 0 {
			t.Errorf("after Block: lengths %v (before %v), stale %v", lens, lens0, stale)
		}
		for _, m := range mut.Members() {
			if m.State() != StateBlocked {
				t.Errorf("%s is %s after Block", m.Name(), m.State())
			}
		}
		gang.Exec(2000, nil)
		lens, _ = heapLens(e)
		if total(lens) != total(lens0)+1 {
			t.Errorf("gang Exec: %d entries, want %d", total(lens), total(lens0)+1)
		}
		e.After(3000, func() {
			before, _ := heapLens(e)
			mut.Unblock()
			lens, stale := heapLens(e)
			if fmt.Sprint(lens) != fmt.Sprint(before) || stale != 0 {
				t.Errorf("after Unblock: lengths %v (before %v), stale %v", lens, before, stale)
			}
			if mut.q.len() != M {
				t.Errorf("thawed sub-heap holds %d entries, want %d", mut.q.len(), M)
			}
			checkLive(t, "thawed sub-heap", &mut.q)
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
