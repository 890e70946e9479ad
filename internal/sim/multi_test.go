package sim

import "testing"

// TestNextEventAtMatchesStep: the peek must equal the time the next Step
// actually advances to, across quantum completions and timers, without
// perturbing the engine.
func TestNextEventAtMatchesStep(t *testing.T) {
	e := NewEngine(2, nil)
	th := e.NewThread("w")
	var chain func(n int)
	chain = func(n int) {
		if n > 0 {
			th.Exec(137, func() { chain(n - 1) })
		}
	}
	chain(5)
	e.After(300, func() {})
	e.After(990, func() {})

	for {
		at, ok := e.NextEventAt()
		// A second peek must agree: peeking is side-effect-free.
		at2, ok2 := e.NextEventAt()
		if at != at2 || ok != ok2 {
			t.Fatalf("peek not idempotent: (%v,%v) then (%v,%v)", at, ok, at2, ok2)
		}
		if !ok {
			if e.Step() {
				t.Fatal("peek said quiescent but Step advanced")
			}
			break
		}
		if !e.Step() {
			t.Fatalf("peek said %v but engine was quiescent", at)
		}
		if now := e.NowF(); now != at {
			t.Fatalf("stepped to %v, peek promised %v", now, at)
		}
	}
}

// TestNextEventAtQuiescent: a fresh engine has no next event.
func TestNextEventAtQuiescent(t *testing.T) {
	e := NewEngine(1, nil)
	if at, ok := e.NextEventAt(); ok {
		t.Fatalf("idle engine peeked %v", at)
	}
}

// TestNextEventAtCancelledTimer: a cancelled timer at the heap top must not
// surface as the next event.
func TestNextEventAtCancelledTimer(t *testing.T) {
	e := NewEngine(1, nil)
	tm := e.After(100, func() { t.Fatal("cancelled timer fired") })
	e.After(250, func() {})
	tm.Cancel()
	at, ok := e.NextEventAt()
	if !ok || at != 250 {
		t.Fatalf("peek = (%v, %v), want (250, true)", at, ok)
	}
}

// TestClusterInterleavesInTimeOrder: cluster steps advance engines in global
// event-time order with ties to the lowest index, and every engine's clock
// stays at or before the last step's time.
func TestClusterInterleavesInTimeOrder(t *testing.T) {
	a, b, c := NewEngine(1, nil), NewEngine(1, nil), NewEngine(1, nil)
	var fired []int
	// a: events at 100, 300; b: 200, 400; c: 100 (ties with a's first —
	// lowest index wins, so a fires before c).
	a.After(100, func() { fired = append(fired, 0) })
	a.After(300, func() { fired = append(fired, 0) })
	b.After(200, func() { fired = append(fired, 1) })
	b.After(400, func() { fired = append(fired, 1) })
	c.After(100, func() { fired = append(fired, 2) })

	cl := NewCluster(a, b, c)
	if cl.Len() != 3 || cl.Engine(1) != b {
		t.Fatal("cluster accessors broken")
	}
	prev := 0.0
	for {
		idx, at, ok := cl.Peek()
		if !ok {
			break
		}
		if at < prev {
			t.Fatalf("cluster time went backwards: %v after %v", at, prev)
		}
		prev = at
		sidx, sok := cl.Step()
		if !sok || sidx != idx {
			t.Fatalf("Step advanced engine %d, Peek promised %d", sidx, idx)
		}
		for i := 0; i < cl.Len(); i++ {
			if now := cl.Engine(i).NowF(); now > at {
				t.Fatalf("engine %d clock %v ran past step time %v", i, now, at)
			}
		}
	}
	want := []int{0, 2, 1, 0, 1}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v (tie must break to lowest index)", fired, want)
		}
	}
	if idx, ok := cl.Step(); ok || idx != -1 {
		t.Fatalf("drained cluster stepped engine %d", idx)
	}
}

// TestClusterInjectBeforeStep: work injected at time t before the cluster
// steps past t gets an exact deadline — the invariant the fleet driver's
// injection discipline relies on.
func TestClusterInjectBeforeStep(t *testing.T) {
	a, b := NewEngine(1, nil), NewEngine(1, nil)
	a.After(500, func() {})
	b.After(800, func() {})
	cl := NewCluster(a, b)

	_, at, ok := cl.Peek()
	if !ok || at != 500 {
		t.Fatalf("peek = (%v, %v), want (500, true)", at, ok)
	}
	// 450 <= global min next event, so either engine can take it exactly.
	var firedAt float64
	b.At(450, func() { firedAt = b.NowF() })
	for {
		if _, ok := cl.Step(); !ok {
			break
		}
	}
	if firedAt != 450 {
		t.Fatalf("injected timer fired at %v, want exactly 450", firedAt)
	}
}

// stepRec is one cluster step for the differential trace: which engine
// advanced, to what time.
type stepRec struct {
	idx int
	at  float64
}

// buildClusterEngines constructs n engines with seeded schedules. With
// collide set, every engine draws from the same stream, so their schedules —
// and therefore their next-event times — are identical, forcing an exact
// cross-engine tie at every step.
func buildClusterEngines(seed uint64, n int, collide bool) []*Engine {
	engines := make([]*Engine, n)
	for i := 0; i < n; i++ {
		s := seed
		if !collide {
			s = seed + uint64(i)*0x9e3779b97f4a7c15
		}
		rng := NewRNG(s)
		e := NewEngine(2, nil)
		for w := 0; w < 2; w++ {
			th := e.NewThread("w")
			var chain func(d int)
			chain = func(d int) {
				if d > 0 {
					th.Exec(float64(50+rng.Uint64()%200), func() { chain(d - 1) })
				}
			}
			chain(3 + int(rng.Uint64()%5))
		}
		for t := 0; t < 4; t++ {
			e.After(float64(100+rng.Uint64()%1000), func() {})
		}
		engines[i] = e
	}
	return engines
}

// clusterStepper is the surface driveCluster steps: a *Cluster, or the
// linear oracle.
type clusterStepper interface {
	Peek() (idx int, at float64, ok bool)
	Step() (idx int, ok bool)
}

// linearCluster is the differential oracle for Cluster: it re-derives every
// engine's next event on every Peek, the O(N) scan the event heap replaced.
type linearCluster []*Engine

func (c linearCluster) Peek() (idx int, at float64, ok bool) {
	idx = -1
	for i, e := range c {
		t, alive := e.NextEventAt()
		if alive && (idx < 0 || t < at) {
			idx, at = i, t
		}
	}
	return idx, at, idx >= 0
}

func (c linearCluster) Step() (idx int, ok bool) {
	idx, _, ok = c.Peek()
	if !ok {
		return -1, false
	}
	c[idx].Step()
	return idx, true
}

// driveCluster runs the cluster dry, recording every step, and keeps it alive
// with periodic injections — including into engines that have already gone
// quiescent, the wake path the event heap must not lose.
func driveCluster(t *testing.T, cl clusterStepper, engines []*Engine, seed uint64) []stepRec {
	t.Helper()
	irng := NewRNG(seed ^ 0x5bf03635)
	var recs []stepRec
	pending := 24
	for {
		idx, at, ok := cl.Peek()
		if !ok {
			if pending == 0 {
				break
			}
			// Whole cluster quiescent: wake a random engine with a timer in
			// the global future (every clock is ≤ the last step time).
			j := int(irng.Uint64() % uint64(len(engines)))
			var tmax float64
			for _, e := range engines {
				if e.NowF() > tmax {
					tmax = e.NowF()
				}
			}
			engines[j].At(tmax+float64(10+irng.Uint64()%100), func() {})
			pending--
			continue
		}
		recs = append(recs, stepRec{idx, at})
		if _, ok := cl.Step(); !ok {
			t.Fatal("Peek promised an event but Step found none")
		}
		if len(recs)%7 == 0 && pending > 0 {
			// Mid-run injection at the current global time, exercising the
			// inject-before-step discipline on a possibly-lagging engine.
			j := int(irng.Uint64() % uint64(len(engines)))
			engines[j].At(at+float64(irng.Uint64()%50), func() {})
			pending--
		}
		if len(recs) > 100000 {
			t.Fatal("cluster failed to drain")
		}
	}
	return recs
}

// TestClusterDifferential: the heap-indexed cluster and the linear scan must
// produce byte-identical step sequences over identical engine sets —
// including schedules built to collide exactly across engines, where the
// (time, index) tie rule is the only thing fixing the order.
func TestClusterDifferential(t *testing.T) {
	for _, collide := range []bool{false, true} {
		for seed := uint64(1); seed <= 12; seed++ {
			for _, n := range []int{1, 2, 5, 16} {
				fast := buildClusterEngines(seed, n, collide)
				ref := buildClusterEngines(seed, n, collide)
				got := driveCluster(t, NewCluster(fast...), fast, seed)
				want := driveCluster(t, linearCluster(ref), ref, seed)
				if len(got) != len(want) {
					t.Fatalf("collide=%v seed=%d n=%d: heap cluster took %d steps, reference %d",
						collide, seed, n, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("collide=%v seed=%d n=%d: step %d diverged: heap %+v, reference %+v",
							collide, seed, n, i, got[i], want[i])
					}
				}
				if collide && n > 1 {
					// With identical schedules the first steps are the same
					// event on every engine: the tie must resolve 0,1,2,...
					// (only the pre-injection prefix is this predictable; the
					// first mid-run injection lands after step 7).
					for i := 0; i < n && i < 7; i++ {
						if got[i].idx != i {
							t.Fatalf("seed=%d n=%d: colliding step %d went to engine %d, want %d (lowest index first)",
								seed, n, i, got[i].idx, i)
						}
					}
				}
			}
		}
	}
}

// TestClusterWakesQuiescentEngine: an engine that drained to quiescence and
// lost its heap entry must resurface when a timer is armed on it — the
// injection path the fleet driver depends on.
func TestClusterWakesQuiescentEngine(t *testing.T) {
	a, b := NewEngine(1, nil), NewEngine(1, nil)
	a.After(100, func() {})
	cl := NewCluster(a, b)
	for {
		if _, ok := cl.Step(); !ok {
			break
		}
	}
	if _, _, ok := cl.Peek(); ok {
		t.Fatal("drained cluster still peeks an event")
	}
	fired := false
	b.At(250, func() { fired = true })
	idx, at, ok := cl.Peek()
	if !ok || idx != 1 || at != 250 {
		t.Fatalf("woken cluster peek = (%d, %v, %v), want (1, 250, true)", idx, at, ok)
	}
	if _, ok := cl.Step(); !ok || !fired {
		t.Fatalf("woken engine did not step (fired=%v)", fired)
	}
}

// TestClusterDoubleMembershipPanics: an engine registered with one
// heap-indexed cluster cannot join another — its change notifications can
// only target one event heap.
func TestClusterDoubleMembershipPanics(t *testing.T) {
	e := NewEngine(1, nil)
	NewCluster(e)
	defer func() {
		if recover() == nil {
			t.Fatal("second NewCluster over the same engine did not panic")
		}
	}()
	NewCluster(e)
}
