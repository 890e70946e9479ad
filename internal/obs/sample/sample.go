// Package sample is the continuous-metric layer of the observability stack:
// a virtual-clock-driven sampler that turns instantaneous machine state —
// heap occupancy, live-set estimate, the mutator/GC/idle CPU split, pacer
// throttling — into a fixed-interval time series on the same telemetry
// stream as the discrete GC events.
//
// Discrete events say *that* something happened; the sampled series says
// what the machine looked like in between, which is what heap-timeline and
// CPU-attribution questions ("who was burning cores while wall time hid
// it?") need. The sampler piggybacks on the simulator's stepper via
// Engine.SetSampler, so it costs one float compare per step when every
// recorder is disabled and never keeps a quiescent simulation alive (it is
// not a timer).
//
// # Downsampling
//
// A fixed cadence over an unbounded run is an unbounded stream. The sampler
// bounds it by stride doubling: every time the emitted-sample count reaches
// a multiple of DefaultMaxSamples, the emission stride doubles, so a run of
// any length emits O(DefaultMaxSamples · log(duration)) samples — early
// behaviour at full resolution, the long tail progressively coarser.
// Utilization fractions are computed over the interval since the previous
// *emitted* sample, so coarsening widens the averaging window instead of
// dropping CPU time.
package sample

import (
	"chopin/internal/obs"
	"chopin/internal/sim"
)

// Gauges are the read-only probes the sampler polls at each tick. Cumulative
// gauges (CPU, stall time) must be monotonic; nil funcs read as zero.
type Gauges struct {
	// HeapUsed is current heap occupancy in bytes.
	HeapUsed func() float64
	// LiveEst is the current live-set estimate in bytes.
	LiveEst func() float64
	// MutatorCPUNS is cumulative mutator CPU in nanoseconds.
	MutatorCPUNS func() float64
	// GCCPUNS is cumulative collector CPU in nanoseconds.
	GCCPUNS func() float64
	// StallNS is cumulative pacer-stall wall time in nanoseconds.
	StallNS func() float64
}

// DefaultInterval is the base sampling cadence: 10ms of virtual time.
const DefaultInterval = 10 * sim.Millisecond

// DefaultMaxSamples is the emitted-count multiple at which the stride
// doubles: it bounds full-resolution emission.
const DefaultMaxSamples = 2048

// Sampler emits KindSample telemetry events at fixed virtual intervals.
// It is driven synchronously from the engine's stepper; all state is
// goroutine-confined with the simulation.
type Sampler struct {
	rec      oobs
	g        Gauges
	hw       float64
	interval float64

	stride  int // emit every stride-th tick
	skip    int // ticks left to swallow before the next emission
	emitted int // samples emitted so far
	max     int // stride doubles at each multiple of max
	lastT   float64
	lastMut float64
	lastGC  float64
	lastStl float64
}

// oobs is the recorder interface fragment the sampler needs (kept tiny so
// tests can stub it without importing sync).
type oobs interface {
	Record(obs.Event)
}

// New builds a sampler recording through rec every DefaultInterval. The
// caller is responsible for only attaching samplers whose recorder is
// enabled — the sampler itself does not re-check on the hot path.
func New(rec obs.Recorder, g Gauges) *Sampler {
	return &Sampler{rec: rec, g: g, stride: 1, max: DefaultMaxSamples, interval: DefaultInterval}
}

// Attach registers the sampler with the engine, baselining cumulative
// gauges at the engine's current time.
func (s *Sampler) Attach(e *sim.Engine) {
	s.hw = float64(e.HWThreads())
	s.lastT = e.NowF()
	s.lastMut = read(s.g.MutatorCPUNS)
	s.lastGC = read(s.g.GCCPUNS)
	s.lastStl = read(s.g.StallNS)
	e.SetSampler(s.interval, s.tick)
}

func read(f func() float64) float64 {
	if f == nil {
		return 0
	}
	return f()
}

// tick is the engine callback: decimate, then emit one sample whose
// utilization fractions cover the window since the previous emission.
func (s *Sampler) tick(tNS float64) {
	if s.skip > 0 {
		s.skip--
		return
	}
	s.skip = s.stride - 1

	mut, gc, stl := read(s.g.MutatorCPUNS), read(s.g.GCCPUNS), read(s.g.StallNS)
	e := obs.Event{
		Kind:     obs.KindSample,
		TNS:      int64(tNS),
		HeapUsed: read(s.g.HeapUsed),
		LiveEst:  read(s.g.LiveEst),
	}
	if dt := tNS - s.lastT; dt > 0 {
		cap := dt * s.hw
		e.MutFrac = (mut - s.lastMut) / cap
		e.GCFrac = (gc - s.lastGC) / cap
		e.StallFrac = (stl - s.lastStl) / dt
	}
	s.lastT, s.lastMut, s.lastGC, s.lastStl = tNS, mut, gc, stl
	s.rec.Record(e)

	s.emitted++
	if s.emitted%s.max == 0 {
		s.stride *= 2
	}
}
