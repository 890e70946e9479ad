package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSingleThreadRunsInRealTime(t *testing.T) {
	e := NewEngine(4, nil)
	th := e.NewThread("worker")
	done := false
	th.Exec(1000, func() { done = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("quantum completion callback did not run")
	}
	if got := e.Now(); got != 1000 {
		t.Fatalf("wall clock = %d, want 1000", got)
	}
	if got := th.CPU(); !almostEqual(got, 1000, 1e-6) {
		t.Fatalf("cpu = %v, want 1000", got)
	}
}

func TestProcessorSharingTwoThreadsOneCPU(t *testing.T) {
	// Two equal threads on one hardware thread: each runs at rate 1/2, so
	// both finish at t=2000 and each accrues 1000 CPU ns.
	e := NewEngine(1, nil)
	a := e.NewThread("a")
	b := e.NewThread("b")
	var ta, tb Time
	a.Exec(1000, func() { ta = e.Now() })
	b.Exec(1000, func() { tb = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ta != 2000 || tb != 2000 {
		t.Fatalf("completion times = %d, %d, want 2000, 2000", ta, tb)
	}
	if got := e.TaskClock(); !almostEqual(got, 2000, 1e-6) {
		t.Fatalf("task clock = %v, want 2000", got)
	}
}

func TestProcessorSharingStaggeredWork(t *testing.T) {
	// One CPU; thread a needs 100, thread b needs 300.
	// Phase 1: both runnable, rate 1/2; a finishes at t=200 having run 100.
	// Phase 2: b alone at rate 1, 200 CPU ns left, finishes at t=400.
	e := NewEngine(1, nil)
	a := e.NewThread("a")
	b := e.NewThread("b")
	var ta, tb Time
	a.Exec(100, func() { ta = e.Now() })
	b.Exec(300, func() { tb = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ta != 200 {
		t.Fatalf("a completed at %d, want 200", ta)
	}
	if tb != 400 {
		t.Fatalf("b completed at %d, want 400", tb)
	}
}

func TestMoreCPUsThanThreads(t *testing.T) {
	// Plenty of hardware: no sharing, everything runs at full speed.
	e := NewEngine(8, nil)
	var ends []Time
	for i := 0; i < 3; i++ {
		th := e.NewThread("w")
		th.Exec(500, func() { ends = append(ends, e.Now()) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, at := range ends {
		if at != 500 {
			t.Fatalf("completion at %d, want 500", at)
		}
	}
	if got := e.TaskClock(); !almostEqual(got, 1500, 1e-6) {
		t.Fatalf("task clock = %v, want 1500", got)
	}
}

func TestCustomCapacityFunction(t *testing.T) {
	// An SMT-style machine: 2 "cores", second pair of threads adds only 50%.
	capFn := func(n int) float64 {
		switch {
		case n <= 2:
			return float64(n)
		case n <= 4:
			return 2 + 0.5*float64(n-2)
		default:
			return 3
		}
	}
	e := NewEngine(4, capFn)
	for i := 0; i < 4; i++ {
		e.NewThread("w").Exec(300, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 threads, capacity 3, per-thread rate 3/4: wall = 300/(3/4) = 400.
	if got := e.Now(); got != 400 {
		t.Fatalf("wall = %d, want 400", got)
	}
	if got := e.TaskClock(); !almostEqual(got, 1200, 1e-3) {
		t.Fatalf("task clock = %v, want 1200", got)
	}
}

func TestTimersFireInOrder(t *testing.T) {
	e := NewEngine(1, nil)
	var order []int
	e.After(300, func() { order = append(order, 3) })
	e.After(100, func() { order = append(order, 1) })
	e.After(200, func() { order = append(order, 2) })
	e.After(100, func() { order = append(order, 11) }) // same time: creation order
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if e.Now() != 300 {
		t.Fatalf("final time %d, want 300", e.Now())
	}
}

func TestTimerDuringIdleMachine(t *testing.T) {
	// No runnable threads: the clock must jump to the timer.
	e := NewEngine(2, nil)
	th := e.NewThread("late")
	e.After(5000, func() { th.Exec(100, nil) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Now(); got != 5100 {
		t.Fatalf("final time %d, want 5100", got)
	}
}

func TestBlockPreservesRemainingWork(t *testing.T) {
	// Thread runs 1000ns of work; at t=400 it is blocked for 600ns.
	// It should finish at 400 + 600 + 600 = 1600 with exactly 1000 CPU ns.
	e := NewEngine(1, nil)
	th := e.NewThread("w")
	var end Time
	th.Exec(1000, func() { end = e.Now() })
	e.After(400, func() {
		th.Block()
		e.After(600, th.Unblock)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 1600 {
		t.Fatalf("end = %d, want 1600", end)
	}
	if got := th.CPU(); !almostEqual(got, 1000, 1e-6) {
		t.Fatalf("cpu = %v, want 1000", got)
	}
	if got := th.BlockedTime(); !almostEqual(got, 600, 1e-6) {
		t.Fatalf("blocked = %v, want 600", got)
	}
}

func TestBlockIdleThreadDefersExec(t *testing.T) {
	e := NewEngine(1, nil)
	th := e.NewThread("w")
	th.Block() // idle -> blocked
	e.After(100, th.Unblock)
	ran := false
	other := e.NewThread("driver")
	other.Exec(10, func() {
		if th.State() != StateBlocked {
			t.Errorf("state = %v, want blocked", th.State())
		}
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("driver did not run")
	}
	if th.State() != StateIdle {
		t.Fatalf("state after unblock = %v, want idle", th.State())
	}
}

func TestChainedQuanta(t *testing.T) {
	// A thread re-Execing itself from its completion callback models a worker
	// loop; 10 quanta of 100ns on an idle machine take exactly 1000ns.
	e := NewEngine(2, nil)
	th := e.NewThread("loop")
	count := 0
	var step func()
	step = func() {
		count++
		if count < 10 {
			th.Exec(100, step)
		}
	}
	th.Exec(100, step)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 1000 {
		t.Fatalf("time = %d, want 1000", e.Now())
	}
}

func TestFinishAbandonsQuantum(t *testing.T) {
	e := NewEngine(1, nil)
	th := e.NewThread("w")
	fired := false
	th.Exec(1e9, func() { fired = true })
	e.After(100, th.Finish)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("abandoned quantum's callback fired")
	}
	if th.State() != StateDone {
		t.Fatalf("state = %v, want done", th.State())
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine(1, nil)
	th := e.NewThread("spin")
	var spin func()
	spin = func() { th.Exec(10, spin) }
	th.Exec(10, spin)
	e.SetEventLimit(50)
	if err := e.Run(); err == nil {
		t.Fatal("expected event-limit error")
	}
}

func TestKernelFractionAccounting(t *testing.T) {
	e := NewEngine(1, nil)
	th := e.NewThread("sys")
	th.SetKernelFraction(0.25)
	th.Exec(1000, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := th.KernelCPU(); !almostEqual(got, 250, 1e-6) {
		t.Fatalf("kernel cpu = %v, want 250", got)
	}
}

func TestMinimumQuantum(t *testing.T) {
	e := NewEngine(1, nil)
	th := e.NewThread("w")
	th.Exec(0, nil) // rounds up to 1ns rather than looping forever
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() < 1 {
		t.Fatalf("time = %d, want >= 1", e.Now())
	}
}

// Property: for any mix of quanta on any machine size, task clock never
// exceeds wall * HW, and equals total submitted work.
func TestQuickTaskClockConservation(t *testing.T) {
	f := func(hwRaw uint8, workRaw []uint16) bool {
		hw := int(hwRaw%8) + 1
		if len(workRaw) == 0 || len(workRaw) > 24 {
			return true
		}
		e := NewEngine(hw, nil)
		var total float64
		for _, w := range workRaw {
			work := float64(w%5000) + 1
			total += work
			e.NewThread("w").Exec(work, nil)
		}
		if err := e.Run(); err != nil {
			return false
		}
		task := e.TaskClock()
		wall := float64(e.Now())
		if !almostEqual(task, total, 1e-3*float64(len(workRaw))) {
			return false
		}
		return task <= wall*float64(hw)+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: wall clock is at least total work / HW (machine can't run faster
// than its capacity) and at most total work (sharing never loses capacity
// when at least one thread is runnable).
func TestQuickWallClockBounds(t *testing.T) {
	f := func(hwRaw uint8, workRaw []uint16) bool {
		hw := int(hwRaw%8) + 1
		if len(workRaw) == 0 || len(workRaw) > 24 {
			return true
		}
		e := NewEngine(hw, nil)
		var total, maxWork float64
		for _, w := range workRaw {
			work := float64(w%5000) + 1
			total += work
			if work > maxWork {
				maxWork = work
			}
			e.NewThread("w").Exec(work, nil)
		}
		if err := e.Run(); err != nil {
			return false
		}
		wall := float64(e.Now())
		lower := math.Max(total/float64(hw), maxWork)
		return wall >= lower-1 && wall <= total+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded RNGs diverged")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	a := NewRNG(7)
	child := a.Split()
	// Parent sequence after a single Split must match a parent that drew one
	// value and discarded it.
	ref := NewRNG(7)
	ref.Uint64()
	for i := 0; i < 100; i++ {
		if a.Uint64() != ref.Uint64() {
			t.Fatal("Split perturbed parent stream beyond one draw")
		}
	}
	_ = child.Uint64()
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGLogNormalMedian(t *testing.T) {
	r := NewRNG(5)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(100, 0.5)
	}
	// Median of a log-normal equals the median parameter.
	lo, hi := 0, 0
	for _, v := range vals {
		if v < 100 {
			lo++
		} else {
			hi++
		}
	}
	ratio := float64(lo) / float64(n)
	if ratio < 0.48 || ratio > 0.52 {
		t.Fatalf("median split = %v, want ~0.5", ratio)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 10000; i++ {
		v := r.Jitter(100, 0.1)
		if v < 90-1e-9 || v > 110+1e-9 {
			t.Fatalf("jitter out of range: %v", v)
		}
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StateIdle: "idle", StateRunnable: "runnable",
		StateBlocked: "blocked", StateDone: "done", State(9): "state(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestSimultaneousCompletionAndBlock(t *testing.T) {
	// Two threads finish quanta at the same instant; the first one's
	// completion callback blocks the second (a STW pause starting exactly
	// then). The second must stay blocked, its completion must still fire,
	// and a later Unblock must return it to idle without panicking.
	e := NewEngine(4, nil)
	a := e.NewThread("a")
	b := e.NewThread("b")
	bCompleted := false
	a.Exec(100, func() {
		if b.State() == StateRunnable {
			b.Block()
		}
	})
	b.Exec(100, func() { bCompleted = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bCompleted {
		t.Fatal("blocked thread's genuine completion was lost")
	}
	if b.State() != StateBlocked {
		t.Fatalf("b state = %v, want blocked", b.State())
	}
	b.Unblock()
	if b.State() != StateIdle {
		t.Fatalf("b state after unblock = %v, want idle", b.State())
	}
}

func TestSimultaneousCompletionAndAbandon(t *testing.T) {
	// The first completion abandons the second thread: its callback is
	// cancelled, matching Abandon's contract.
	e := NewEngine(4, nil)
	a := e.NewThread("a")
	b := e.NewThread("b")
	fired := false
	a.Exec(100, b.Abandon)
	b.Exec(100, func() { fired = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("abandoned thread's callback fired")
	}
	if b.State() != StateIdle {
		t.Fatalf("b state = %v, want idle", b.State())
	}
}

func TestAbandonReleasesBlockedThread(t *testing.T) {
	e := NewEngine(1, nil)
	th := e.NewThread("w")
	th.Exec(1000, nil)
	e.After(100, func() {
		th.Block()
		th.Abandon()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if th.State() != StateIdle {
		t.Fatalf("state = %v, want idle", th.State())
	}
	if th.BlockedTime() < 0 {
		t.Fatal("negative blocked time")
	}
}

func TestEngineAccessors(t *testing.T) {
	e := NewEngine(8, nil)
	if e.HWThreads() != 8 {
		t.Fatalf("HWThreads = %d", e.HWThreads())
	}
	if e.NowF() != 0 {
		t.Fatalf("NowF = %v", e.NowF())
	}
	e.NewThread("w").Exec(100, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Events() == 0 {
		t.Fatal("no events counted")
	}
	if e.NowF() != float64(e.Now()) {
		t.Fatalf("NowF %v != Now %d", e.NowF(), e.Now())
	}
	e.SetEventLimit(-1) // restores unlimited
	e.NewThread("w2").Exec(100, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpFloat64(t *testing.T) {
	r := NewRNG(17)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestInvalidEngineConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(0, nil)
}

func TestExecOnRunnablePanics(t *testing.T) {
	e := NewEngine(1, nil)
	th := e.NewThread("w")
	th.Exec(100, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	th.Exec(100, nil)
}

func TestUnblockOnRunnablePanics(t *testing.T) {
	e := NewEngine(1, nil)
	th := e.NewThread("w")
	th.Exec(100, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	th.Unblock()
}

func TestKernelFractionValidation(t *testing.T) {
	e := NewEngine(1, nil)
	th := e.NewThread("w")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	th.SetKernelFraction(1.5)
}

func TestThreadsAccessor(t *testing.T) {
	e := NewEngine(2, nil)
	a := e.NewThread("a")
	b := e.NewThread("b")
	ths := e.Threads()
	if len(ths) != 2 || ths[0] != a || ths[1] != b {
		t.Fatalf("Threads() = %v", ths)
	}
	if a.Name() != "a" {
		t.Fatalf("Name() = %q", a.Name())
	}
}
