package sample

import (
	"testing"

	"chopin/internal/obs"
	"chopin/internal/sim"
)

type sliceRec struct{ events []obs.Event }

func (r *sliceRec) Enabled() bool      { return true }
func (r *sliceRec) Record(e obs.Event) { r.events = append(r.events, e) }
func (r *sliceRec) samples() []obs.Event {
	var out []obs.Event
	for _, e := range r.events {
		if e.Kind == obs.KindSample {
			out = append(out, e)
		}
	}
	return out
}

// spin keeps one thread busy for total nanoseconds in fixed quanta.
func spin(e *sim.Engine, total float64) {
	th := e.NewThread("w")
	burned := 0.0
	var next func()
	next = func() {
		if burned < total {
			burned += 100
			th.Exec(100, next)
		}
	}
	next()
}

func TestSamplerEmitsSeries(t *testing.T) {
	e := sim.NewEngine(2, nil)
	rec := &sliceRec{}
	var cpu float64
	s := New(rec, Gauges{
		HeapUsed:     func() float64 { return 42 },
		LiveEst:      func() float64 { return 17 },
		MutatorCPUNS: func() float64 { cpu = e.TaskClock(); return cpu },
		GCCPUNS:      func() float64 { return 0 },
	})
	s.interval = 1000
	s.Attach(e)
	spin(e, 10_000)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := rec.samples()
	if len(got) != 10 {
		t.Fatalf("emitted %d samples over 10000ns at 1000ns cadence, want 10", len(got))
	}
	var last int64 = -1
	for i, e := range got {
		if e.TNS != int64(1000*(i+1)) {
			t.Fatalf("sample %d at t=%d, want %d", i, e.TNS, 1000*(i+1))
		}
		if e.TNS <= last {
			t.Fatalf("samples not monotonic at %d", i)
		}
		last = e.TNS
		if e.HeapUsed != 42 || e.LiveEst != 17 {
			t.Fatalf("gauge fields lost: %+v", e)
		}
		// One thread busy on a 2-hw machine: mutator fraction 0.5.
		if e.MutFrac < 0.49 || e.MutFrac > 0.51 {
			t.Fatalf("sample %d MutFrac = %v, want ~0.5", i, e.MutFrac)
		}
		if e.GCFrac != 0 || e.StallFrac != 0 {
			t.Fatalf("idle gauges nonzero: %+v", e)
		}
	}
}

// TestSamplerDownsamples locks the stride-doubling rule: after max
// emissions the cadence halves, so N ticks emit ~max·log2 samples rather
// than N.
func TestSamplerDownsamples(t *testing.T) {
	e := sim.NewEngine(1, nil)
	rec := &sliceRec{}
	s := New(rec, Gauges{})
	s.interval, s.max = 100, 8
	s.Attach(e)
	spin(e, 100*1024) // 1024 ticks
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := rec.samples()
	// Strides 1,2,4,… each contribute 8 emissions: 8 cover 8 ticks, next 8
	// cover 16, then 32… 1024 ticks = 8·(1+2+4+8+16+32+64) + 8 extra at
	// stride 128 ⇒ emitted stays logarithmic in run length.
	if len(got) >= 200 || len(got) < 40 {
		t.Fatalf("emitted %d samples from 1024 ticks, want logarithmic decimation", len(got))
	}
	// Gaps between consecutive emissions never shrink.
	lastGap := int64(0)
	for i := 1; i < len(got); i++ {
		gap := got[i].TNS - got[i-1].TNS
		if gap < lastGap {
			t.Fatalf("emission gap shrank from %d to %d at %d", lastGap, gap, i)
		}
		lastGap = gap
	}
	if lastGap < 2*100 {
		t.Fatalf("final gap %dns: stride never widened", lastGap)
	}
}

// TestSamplerFractionsCoverCoarsenedWindow checks utilization is computed
// over the window since the previous emission, not the base interval, so
// decimation averages rather than drops CPU time.
func TestSamplerFractionsCoverCoarsenedWindow(t *testing.T) {
	e := sim.NewEngine(1, nil)
	rec := &sliceRec{}
	s := New(rec, Gauges{
		MutatorCPUNS: e.TaskClock,
	})
	s.interval, s.max = 100, 4
	s.Attach(e)
	spin(e, 100*64)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, smp := range rec.samples() {
		if smp.MutFrac < 0.999 || smp.MutFrac > 1.001 {
			t.Fatalf("sample %d MutFrac = %v, want ~1.0 across every stride", i, smp.MutFrac)
		}
	}
}
