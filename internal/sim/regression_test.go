package sim

import (
	"testing"
)

// Regression: Finish on a blocked thread used to drop the in-flight blocked
// interval — blockedNS was never credited, though Abandon credited it.
func TestFinishCreditsInFlightBlockedInterval(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		finishCreditsBlockedInterval[*Engine, *Thread, *Group](t, NewEngine(2, nil))
	})
	t.Run("reference", func(t *testing.T) {
		finishCreditsBlockedInterval[*refEngine, *refThread, *refGroup](t, newRefEngine(2, nil))
	})
}

func finishCreditsBlockedInterval[E simAPI[T, G], T simThread, G simGroup[T]](
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

// Steady-state schedule-and-fire timer traffic must not allocate: entries are
// values on the heap's slice, which a warm engine never grows.
func TestTimerFreeListRecyclesNodes(t *testing.T) {
	e := NewEngine(1, nil)
	fired := 0
	count := func() { fired++ }
	// Warm the heap slice.
	for i := 0; i < 1000; i++ {
		e.After(float64(i), count)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		e.After(1e3, count)
		e.After(1e3, count)
		if !e.Step() {
			t.Fatal("engine quiesced with two timers armed")
		}
	})
	if allocs > 0 {
		t.Fatalf("schedule-and-fire allocates %v objects per op, want 0", allocs)
	}
	if want := 1000 + 2*2001; fired != want {
		t.Fatalf("%d timers fired, want %d", fired, want)
	}
}

// A thread that leaves its quantum mid-flight takes its completion entry
// with it: block/unblock churn must never leave the heap holding more
// entries than there are threads with a quantum in flight.
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
		th.Unblock() // re-activates: removes the old entry, pushes a fresh one
		if n := e.comp.len(); n > e.runCount {
			t.Fatalf("cycle %d: completion heap holds %d entries for %d active threads", cycles, n, e.runCount)
		}
		driver.Exec(1, churn)
	}
	driver.Exec(1, churn)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := e.comp.len(); n != 0 {
		t.Fatalf("completion heap holds %d entries after the run drained", n)
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
