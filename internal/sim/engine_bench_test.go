package sim

import (
	"fmt"
	"testing"
)

// Engine scaling benchmarks. Run with -benchmem: the fast stepper must stay
// at zero allocs/op in steady state, so allocation regressions in the hot
// loop are visible. `make bench` captures the results to BENCH_sim.json.

// spinThreads populates the engine with T self-re-Execing workers whose
// quanta are pairwise distinct, so completions spread across segments and
// each event retires a single thread (the honest per-event comparison: the
// O(T) reference engine pays its rescan per completion instead of amortizing
// it over a simultaneous batch).
func spinThreads(e *Engine, threads int) {
	for i := 0; i < threads; i++ {
		th := e.NewThread("w")
		work := float64(100 + 13*i)
		var spin func()
		spin = func() { th.Exec(work, spin) }
		th.Exec(work, spin)
	}
}

func benchSteps(b *testing.B, e *Engine, warm int) {
	for i := 0; i < warm; i++ {
		if !e.Step() {
			b.Fatal("engine quiesced during warmup")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("engine quiesced")
		}
	}
}

func BenchmarkEngineStep(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			e := NewEngine(64, nil)
			spinThreads(e, n)
			benchSteps(b, e, 2*n)
		})
	}
}

// BenchmarkEngineStepNaive is the same workload on the eager O(T) reference
// engine (reference_test.go); its ratio to BenchmarkEngineStep is what
// virtual service time buys.
func BenchmarkEngineStepNaive(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			e := newRefEngine(64, nil)
			for i := 0; i < n; i++ {
				th := e.NewThread("w")
				work := float64(100 + 13*i)
				var spin func()
				spin = func() { th.Exec(work, spin) }
				th.Exec(work, spin)
			}
			for i := 0; i < 2*n; i++ {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !e.Step() {
					b.Fatal("engine quiesced")
				}
			}
		})
	}
}

// BenchmarkEngineTimerHeavy drives self-rescheduling timers that each also
// arm a decoy firing as a no-op two periods later, so the timer heap holds
// about three entries per live timer and pops as many as it pushes.
func BenchmarkEngineTimerHeavy(b *testing.B) {
	e := NewEngine(4, nil)
	nop := func() {}
	for i := 0; i < 64; i++ {
		period := float64(100 + 7*i)
		var fire func()
		fire = func() {
			e.After(period, fire)
			e.After(2*period, nop)
		}
		e.After(period, fire)
	}
	benchSteps(b, e, 256)
}

// BenchmarkEngineBlockUnblockHeavy alternates STW-style block/unblock waves
// over a worker pool — the transition-heavy path where every Block removes
// a completion entry from the engine heap and every Unblock pushes one.
func BenchmarkEngineBlockUnblockHeavy(b *testing.B) {
	const workers = 64
	e := NewEngine(8, nil)
	ths := make([]*Thread, workers)
	for i := range ths {
		th := e.NewThread("w")
		var spin func()
		spin = func() { th.Exec(1e9, spin) }
		th.Exec(1e9, spin)
		ths[i] = th
	}
	// Pre-bind the unblock closures so the hot loop allocates nothing.
	unblock := make([]func(), workers)
	for i, th := range ths {
		unblock[i] = th.Unblock
	}
	driver := e.NewThread("driver")
	var wave func()
	wave = func() {
		for _, th := range ths {
			if th.State() == StateRunnable {
				th.Block()
			}
		}
		for i, th := range ths {
			if th.State() == StateBlocked {
				e.After(20, unblock[i])
			}
		}
		driver.Exec(50, wave)
	}
	driver.Exec(50, wave)
	benchSteps(b, e, 1024)
}
