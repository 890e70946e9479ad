package sim

import (
	"testing"
)

// Regression: Finish on a blocked thread used to drop the in-flight blocked
// interval — blockedNS was never credited, though Abandon credited it.
func TestFinishCreditsInFlightBlockedInterval(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		finishCreditsBlockedInterval[*Engine, *Thread, *Group, Timer](t, NewEngine(2, nil))
	})
	t.Run("reference", func(t *testing.T) {
		finishCreditsBlockedInterval[*refEngine, *refThread, *refGroup, *refTimer](t, newRefEngine(2, nil))
	})
}

func finishCreditsBlockedInterval[E simAPI[T, G, M], T simThread, G simGroup[T], M interface{ Cancel() }](
	t *testing.T, e E) {
	th := e.NewThread("w")
	driver := e.NewThread("driver")
	th.Exec(10_000, nil)
	e.After(100, th.Block)
	e.After(400, th.Finish)
	// Keep the clock moving past the Finish so an uncredited interval
	// cannot masquerade as "the run ended at the block".
	driver.Exec(1000, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if th.State() != StateDone {
		t.Fatalf("state = %v, want done", th.State())
	}
	if got := th.BlockedTime(); !almostEqual(got, 300, 1e-6) {
		t.Fatalf("BlockedTime = %v, want 300 (in-flight blocked interval dropped by Finish)", got)
	}
	if got := th.CPU(); !almostEqual(got, 100, 1e-6) {
		t.Fatalf("CPU = %v, want 100", got)
	}
}

// Regression: the timer queue used to retain cancelled timers until popped,
// so schedule-and-cancel loops (pacer re-arming) grew the heap without
// bound. Lazy-cancel compaction must bound it near twice the live count.
func TestCancelledTimersDoNotGrowHeap(t *testing.T) {
	e := NewEngine(1, nil)
	fired := 0
	e.After(1e15, func() { fired++ }) // one live far-future timer
	for i := 0; i < 100_000; i++ {
		tm := e.After(1e12+float64(i), func() { t.Fatal("cancelled timer fired") })
		tm.Cancel()
	}
	if n := e.timers.len(); n > 64 {
		t.Fatalf("timer heap holds %d entries after 100k schedule-and-cancel cycles, want bounded", n)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("live timer fired %d times, want 1", fired)
	}
}

// The timer free list must make steady-state schedule/cancel/fire traffic
// allocation-free.
func TestTimerFreeListRecyclesNodes(t *testing.T) {
	e := NewEngine(1, nil)
	nop := func() {}
	// Warm the heap slice and free list.
	for i := 0; i < 1000; i++ {
		e.After(float64(i), nop).Cancel()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		e.After(1e9, nop).Cancel()
	})
	if allocs > 0 {
		t.Fatalf("schedule-and-cancel allocates %v objects per op, want 0", allocs)
	}
}

// A handle whose timer already fired must stay inert even after its node is
// recycled for a new timer: Cancel on it must not cancel the new arming.
func TestStaleTimerHandleCannotCancelRecycledNode(t *testing.T) {
	e := NewEngine(1, nil)
	var stale Timer
	stale = e.After(10, func() {})
	if err := e.Run(); err != nil { // fires; node goes to the free list
		t.Fatal(err)
	}
	fired := false
	fresh := e.After(10, func() { fired = true }) // recycles the node
	if fresh.n != stale.n {
		t.Skip("free list did not recycle the node; invariant untestable here")
	}
	stale.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("stale handle's Cancel killed a recycled timer")
	}
}

// Block/unblock churn orphans completion-heap entries; compaction must keep
// the heap proportional to the live runnable set.
func TestOrphanedCompletionsAreCompacted(t *testing.T) {
	e := NewEngine(4, nil)
	th := e.NewThread("w")
	driver := e.NewThread("driver")
	th.Exec(1e12, nil)
	cycles := 0
	var churn func()
	churn = func() {
		cycles++
		if cycles >= 50_000 {
			th.Abandon()
			return
		}
		th.Block()
		th.Unblock() // re-activates: pushes a fresh entry, orphaning none live
		driver.Exec(1, churn)
	}
	driver.Exec(1, churn)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := e.comp.len(); n > 64 {
		t.Fatalf("completion heap holds %d entries after 50k block/unblock cycles, want bounded", n)
	}
}

// TaskClock must agree with the per-thread sum at arbitrary mid-run points,
// not just at quiescence — the O(1) aggregate and the lazy per-thread
// accessors are two views of the same state.
func TestTaskClockMatchesPerThreadSumMidRun(t *testing.T) {
	e := NewEngine(2, nil)
	var ths []*Thread
	for i := 0; i < 5; i++ {
		th := e.NewThread("w")
		th.Exec(float64(1000+300*i), nil)
		ths = append(ths, th)
	}
	checks := 0
	for at := 100.0; at < 3000; at += 137 {
		e.After(at, func() {
			var sum float64
			for _, th := range ths {
				sum += th.CPU()
			}
			if !almostEqual(sum, e.TaskClock(), 1e-6) {
				t.Errorf("at t=%v: ΣCPU = %v but TaskClock = %v", e.NowF(), sum, e.TaskClock())
			}
			checks++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if checks == 0 {
		t.Fatal("no mid-run checks executed")
	}
}

// The capacity function is memoized per runnable count; the engine must
// still reject invalid capacities the first time a count is seen.
func TestInvalidCapacityStillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity > n")
		}
	}()
	e := NewEngine(4, func(n int) float64 { return float64(n) + 1 })
	e.NewThread("w").Exec(100, nil)
	e.Step()
}
