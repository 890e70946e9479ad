package sim

import (
	"math"
	"testing"
)

// TestSamplerFixedBoundaries drives a busy engine and checks the hook fires
// exactly once per crossed interval boundary, with boundary-aligned times.
func TestSamplerFixedBoundaries(t *testing.T) {
	e := NewEngine(2, nil)
	var ticks []float64
	e.SetSampler(100, func(tNS float64) { ticks = append(ticks, tNS) })

	th := e.NewThread("w")
	var spin func()
	n := 0
	spin = func() {
		n++
		if n < 40 {
			th.Exec(37, spin)
		}
	}
	th.Exec(37, spin)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) == 0 {
		t.Fatal("sampler never fired")
	}
	for i, tick := range ticks {
		if want := float64(100 * (i + 1)); tick != want {
			t.Fatalf("tick %d at %v, want %v", i, tick, want)
		}
	}
	// 40 quanta of 37ns on one thread = 1480ns of virtual time: 14 ticks.
	if len(ticks) != 14 {
		t.Fatalf("fired %d ticks over 1480ns at interval 100, want 14", len(ticks))
	}
}

// TestSamplerIdleJump checks a timer-driven idle jump crossing several
// boundaries fires the hook once per boundary, and that an armed sampler
// does not keep an otherwise-quiescent engine alive.
func TestSamplerIdleJump(t *testing.T) {
	e := NewEngine(1, nil)
	var ticks []float64
	e.SetSampler(50, func(tNS float64) { ticks = append(ticks, tNS) })
	fired := false
	e.After(220, func() { fired = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("timer did not fire")
	}
	want := []float64{50, 100, 150, 200}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

// TestSamplerParity runs the same schedule on the engine and the reference
// engine and demands identical tick sequences — the sampler is part of the
// differential-oracle contract like every other observable.
func TestSamplerParity(t *testing.T) {
	fast := samplerTicks[*Engine, *Thread, *Group, Timer](t, NewEngine(2, nil))
	ref := samplerTicks[*refEngine, *refThread, *refGroup, *refTimer](t, newRefEngine(2, nil))
	if len(fast) != len(ref) {
		t.Fatalf("fast fired %d ticks, reference %d", len(fast), len(ref))
	}
	for i := range fast {
		if fast[i] != ref[i] {
			t.Fatalf("tick %d: fast %v, reference %v", i, fast[i], ref[i])
		}
	}
}

// samplerTicks runs TestSamplerParity's schedule on e and returns the ticks.
func samplerTicks[E simAPI[T, G, M], T simThread, G simGroup[T], M interface{ Cancel() }](
	t *testing.T, e E) []float64 {
	var ticks []float64
	e.SetSampler(75, func(tNS float64) { ticks = append(ticks, tNS) })
	a, b := e.NewThread("a"), e.NewThread("b")
	na, nb := 0, 0
	var spinA, spinB func()
	spinA = func() {
		if na++; na < 25 {
			a.Exec(53, spinA)
		}
	}
	spinB = func() {
		if nb++; nb < 25 {
			b.Exec(91, spinB)
		}
	}
	a.Exec(53, spinA)
	b.Exec(91, spinB)
	e.After(333, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return ticks
}

// TestSamplerDisarm checks SetSampler(0, nil) restores the +Inf sentinel.
func TestSamplerDisarm(t *testing.T) {
	e := NewEngine(1, nil)
	e.SetSampler(10, func(float64) { t.Fatal("disarmed sampler fired") })
	e.SetSampler(0, nil)
	if !math.IsInf(e.nextSample, 1) {
		t.Fatalf("nextSample = %v after disarm, want +Inf", e.nextSample)
	}
	th := e.NewThread("w")
	th.Exec(100, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
