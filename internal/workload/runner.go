package workload

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"chopin/internal/cpuarch"
	"chopin/internal/gc"
	"chopin/internal/heap"
	"chopin/internal/jit"
	"chopin/internal/obs"
	"chopin/internal/obs/sample"
	"chopin/internal/sim"
	"chopin/internal/trace"
)

// RunConfig selects everything about one benchmark invocation: the JVM-side
// knobs the paper sweeps (collector, heap size, compiler configuration,
// compressed oops) and the experiment-side knobs (machine model, iteration
// and event counts, seed).
type RunConfig struct {
	// HeapMB is the -Xmx/-Xms heap limit in megabytes.
	HeapMB float64
	// Collector selects the garbage collector.
	Collector gc.Kind
	// CollectorParams, when non-nil, overrides the collector's preset —
	// the hook for ablation studies (pacer off, generational off, barrier
	// tax sweeps).
	CollectorParams *gc.Params
	// Machine is the processor model; the zero value means the reference
	// Zen4 machine.
	Machine cpuarch.Machine
	// Compiler is the JIT configuration (default tiered).
	Compiler jit.Config
	// Iterations is the number of benchmark iterations (-n); default 1.
	Iterations int
	// Events overrides the per-iteration event count (0 = workload default).
	// Scaling events down keeps the workload's rates intact while making
	// sweeps affordable.
	Events int
	// Seed makes the invocation deterministic; different seeds model
	// different invocations.
	Seed uint64
	// DisableCompressedOops inflates the footprint of compressed-pointer
	// collectors by ~1.3x (the GMU experiment). ZGC is unaffected: it never
	// compresses pointers.
	DisableCompressedOops bool
	// RecordLatency forces per-event timing even for workloads that are not
	// latency-sensitive.
	RecordLatency bool
	// Setup injects a Mytkowicz-style experimental-environment bias (see
	// bias.go): the same setup biases every quantum by the same hidden
	// factor. nil means a neutral environment.
	Setup *Setup
	// OpenLoopHeadroom stretches the open-loop arrival interval by the given
	// factor (0 means 1.0 = arrivals at the workload's nominal ideal rate).
	// Real load tests drive below saturation; with GC overhead, nominal-rate
	// arrivals can exceed capacity and diverge, which is itself a valid
	// experiment but not the usual one.
	OpenLoopHeadroom float64
	// OpenLoop replaces the DaCapo-style closed-loop request discipline with
	// scheduled arrivals at the workload's nominal rate: requests queue when
	// workers are busy and latency runs from arrival to completion. This is
	// the ground-truth queueing behaviour that metered latency approximates
	// (see internal/workload/openloop.go). Build phases are not modelled in
	// open-loop mode; the live set is installed directly.
	OpenLoop bool
	// Recorder receives the run's telemetry (GC phases, pacer stalls,
	// scheduler quiescent points); nil disables recording. Excluded from JSON
	// so it never participates in job hashing or result persistence. Only a
	// direct Run (or a fleet replica) may set it: the experiment engine
	// refuses a job that carries one and lends each executed job its own
	// buffer, flushed to the engine's recorder.
	Recorder obs.Recorder `json:"-"`
}

// Event is one timed request/frame: its processing start and end in virtual
// nanoseconds. The latency methodology consumes these.
type Event struct {
	Start, End sim.Time
}

// IterationResult is the measurement of a single iteration.
type IterationResult struct {
	WallNS    float64
	CPUNS     float64 // task-clock delta: all threads, including GC
	KernelNS  float64 // mutator kernel-mode share
	Allocated float64 // bytes allocated this iteration
	StartNS   sim.Time
	EndNS     sim.Time
}

// Result is the outcome of one invocation.
type Result struct {
	Workload   string
	Config     RunConfig
	Iterations []IterationResult
	// Events holds the last iteration's per-event times (build-phase events
	// excluded) when latency was recorded.
	Events []Event
	// Log is the full-run GC telemetry.
	Log *trace.Log
	// GCCPUNS is the total CPU consumed by GC threads over the run.
	GCCPUNS float64
	// MutatorCPUNS is the total CPU consumed by mutator threads.
	MutatorCPUNS float64
}

// Last returns the final (best-warmed) iteration measurement.
func (r *Result) Last() IterationResult {
	return r.Iterations[len(r.Iterations)-1]
}

// ErrOutOfMemory is returned when the collector cannot satisfy an allocation
// even after a full collection: the heap is below the workload's minimum.
type ErrOutOfMemory struct {
	Workload string
	HeapMB   float64
	Kind     gc.Kind
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("%s: OutOfMemory with %v at %.0fMB", e.Workload, e.Kind, e.HeapMB)
}

// runner drives one invocation.
type runner struct {
	d       *Descriptor
	cfg     RunConfig
	eng     *sim.Engine
	h       *heap.Heap
	col     *gc.Collector
	log     *trace.Log
	rng     *sim.RNG
	workers []*sim.Thread

	events      int
	medianNS    float64
	bytesPer    float64
	archFactor  float64
	buildEvents int

	iter      int
	nextEvent int
	oom       bool
	recording bool
	latencies []Event

	// onComplete, when set, observes every open-loop completion with the
	// arrival's caller-assigned ID (see runner.injectArrival) — the seam a
	// fleet replica hangs its bookkeeping on. The hook runs inside the
	// completion callback and must not re-enter the runner.
	onComplete func(id int32, start, end sim.Time)
	// onDispatch, when set, observes an open-loop arrival leaving the queue
	// for an idle worker — the queue-wait / service-time boundary the fleet
	// tracer needs for blame attribution. Same discipline as onComplete: runs
	// inside dispatch, must not re-enter the runner.
	onDispatch func(id int32, at sim.Time)

	// freeFrames recycles event continuation frames (see eventFrame): the
	// steady-state invocation path allocates nothing per event.
	freeFrames *eventFrame
	ol         openLoopState

	// scratch backs log and ol.queue until release hands it back.
	scratch *Scratch
}

// Scratch is the storage a run grows with its length: the GC log the
// collector appends to, the open-loop arrival queue and a fleet replica's
// latency record. A run appends into a Scratch an earlier run already grew
// instead of regrowing fresh slices several times over. Run draws its own
// from scratchPool and hands its caller an exact-size copy of the log
// (trace.Log.Clone); a fleet keeps one per replica across its runs (see
// NewReplica). The zero value is ready to use.
type Scratch struct {
	log   trace.Log
	queue []olItem
	// lat backs a fleet replica's latency record. Run hands its latencies
	// to its Result, so a standalone run never uses it.
	lat []Event
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// bind empties s for a new run. A fresh scratch starts at capacities a
// short run (a fleet replica serving a handful of requests) never outgrows.
func (s *Scratch) bind() {
	s.log.Reset()
	s.log.Events = slices.Grow(s.log.Events, 64)
	s.log.Pauses = slices.Grow(s.log.Pauses, 64)
	s.queue = slices.Grow(s.queue[:0], 8)
}

// release hands the scratch back to its owner's keeping. Nothing the run
// leaves behind reaches it afterwards: the collector drops the log, and the
// sampler's stall gauge reads it through r.log, which is cleared. A second
// release is a no-op.
func (r *runner) release() {
	s := r.scratch
	if s == nil {
		return
	}
	s.queue = r.ol.queue[:0]
	r.col.SetLog(nil)
	r.log, r.ol.queue, r.scratch = nil, nil, nil
}

// eventFrame is the pooled continuation state for one in-flight event: the
// explicit form of what used to be a chain of per-event closures threaded
// through Collector.Alloc and Thread.Exec callbacks. A frame is claimed when
// a worker starts an event, walks the event's sliced allocate-then-compute
// sequence via its two pre-bound callbacks, and returns to the runner's free
// list on completion — so a run needs at most one live frame per worker and
// the per-event hot path is allocation-free in steady state (same free-list
// pattern as the engine's timer nodes, internal/sim/timer.go).
type eventFrame struct {
	r          *runner
	w          *sim.Thread
	remaining  int // allocate-compute slices left in this event
	sliceBytes float64
	sliceCost  float64
	start      sim.Time // claim time (closed loop) or arrival time (open loop)
	idx        int      // event index (closed loop); worker index (open loop)
	olID       int32    // open loop: the arrival's caller-assigned identity
	open       bool     // which completion discipline applies
	next       *eventFrame

	// onAlloc and onExec are this frame's method values, bound once when the
	// frame is first created; reusing them through the pool is what removes
	// the per-slice closure allocations.
	onAlloc func(bool)
	onExec  func()
}

// newFrame claims a frame from the free list, minting one (with its two
// callback bindings) only when the pool is empty.
func (r *runner) newFrame() *eventFrame {
	f := r.freeFrames
	if f != nil {
		r.freeFrames = f.next
		f.next = nil
		return f
	}
	f = &eventFrame{r: r}
	f.onAlloc = f.allocDone
	f.onExec = f.execDone
	return f
}

// releaseFrame returns a completed (or abandoned) frame to the pool.
func (r *runner) releaseFrame(f *eventFrame) {
	f.w = nil
	f.next = r.freeFrames
	r.freeFrames = f
}

// begin samples the event's allocation volume and service cost (in the same
// RNG order as always), splits them into slices, and starts the walk.
func (f *eventFrame) begin() {
	r := f.r
	bytes := r.rng.Jitter(r.bytesPer, 0.10)
	slices := 1 + int(bytes/allocSliceBytes)
	if slices > 64 {
		slices = 64
	}
	cost := r.rng.LogNormal(r.medianNS, r.d.ServiceSigma) *
		r.archFactor *
		r.d.Jit.Factor(r.cfg.Compiler, r.iter)
	f.sliceBytes = bytes / float64(slices)
	f.sliceCost = cost / float64(slices)
	f.remaining = slices
	f.step()
}

// step advances the event by one allocate-then-compute slice, or completes
// it when none remain.
func (f *eventFrame) step() {
	if f.remaining == 0 {
		f.complete()
		return
	}
	f.remaining--
	f.r.col.Alloc(f.sliceBytes, f.onAlloc)
}

// allocDone is the frame's Collector.Alloc continuation: on success it burns
// the slice's service CPU (the barrier tax is sampled per slice so
// concurrent-cycle activity is reflected while it is actually running); on
// OutOfMemory it flags the run and parks.
func (f *eventFrame) allocDone(ok bool) {
	if !ok {
		f.r.oom = true
		f.r.releaseFrame(f)
		return
	}
	f.w.Exec(f.sliceCost*f.r.col.MutatorFactor(), f.onExec)
}

// execDone is the frame's Thread.Exec continuation.
func (f *eventFrame) execDone() { f.step() }

// complete finishes the event under the frame's discipline: closed-loop
// events record claim-to-completion latency and have the worker claim the
// next event; open-loop events record arrival-to-completion latency and
// re-dispatch the queue.
func (f *eventFrame) complete() {
	r := f.r
	if f.open {
		f.completeOpen()
		return
	}
	inBuild := r.iter == 0 && f.idx < r.buildEvents
	if inBuild {
		frac := float64(f.idx+1) / float64(r.buildEvents)
		r.h.SetTargetLive(r.targetLive(0) * frac)
	} else if r.recording {
		r.latencies = append(r.latencies, Event{Start: f.start, End: r.eng.Now()})
	}
	w := f.w
	r.releaseFrame(f)
	r.startNext(w)
}

// newRunner performs the whole invocation setup — config defaulting,
// engine/heap/collector construction, RNG seeding, worker registration,
// sampler attachment — shared verbatim by Run and by fleet replicas
// (NewReplica), so a replica's simulation state is bit-identical to a
// standalone invocation's at iteration start. The run grows s until release.
func newRunner(d *Descriptor, cfg RunConfig, s *Scratch) (*runner, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if cfg.HeapMB <= 0 || math.IsNaN(cfg.HeapMB) || math.IsInf(cfg.HeapMB, 0) {
		return nil, fmt.Errorf("workload %s: heap %vMB invalid", d.Name, cfg.HeapMB)
	}
	if cfg.CollectorParams == nil && !slices.Contains(gc.AllKinds, cfg.Collector) {
		return nil, fmt.Errorf("workload %s: unknown collector %v", d.Name, cfg.Collector)
	}
	if cfg.Machine.Name == "" {
		cfg.Machine = cpuarch.Zen4
	}
	if cfg.Iterations < 1 {
		cfg.Iterations = 1
	}

	var p gc.Params
	if cfg.CollectorParams != nil {
		p = *cfg.CollectorParams
	} else {
		p = cfg.Collector.Params(cfg.Machine.Cores)
	}
	expansion := p.Expansion
	if cfg.DisableCompressedOops && expansion < 1.30 {
		expansion = 1.30
	}

	eng := sim.NewEngine(cfg.Machine.HWThreads, cfg.Machine.Capacity(d.Arch.SMTContention))
	eng.SetEventLimit(500_000_000)
	h := heap.New(heap.Config{SizeBytes: cfg.HeapMB * MB, Expansion: expansion}, d.Demo)
	s.bind()
	col := gc.New(p, eng, h, &s.log)
	if rec := obs.Or(cfg.Recorder); rec.Enabled() {
		eng.SetRecorder(rec)
		col.SetRecorder(rec)
	}

	threads := d.Threads
	events := d.Events
	if cfg.Events > 0 {
		events = cfg.Events
	}

	r := &runner{
		d: d, cfg: cfg, eng: eng, h: h, col: col, log: &s.log,
		scratch:    s,
		ol:         openLoopState{queue: s.queue},
		rng:        sim.NewRNG(cfg.Seed ^ hashName(d.Name)),
		events:     events,
		medianNS:   d.ServiceMedianNS(events),
		bytesPer:   d.BytesPerEvent(events),
		archFactor: d.Arch.TimeFactor(cfg.Machine),
	}
	if cfg.Setup != nil {
		// Layout bias multiplies all compute, indistinguishable from a
		// slightly different machine — which is the point.
		r.archFactor *= cfg.Setup.Bias()
	}
	if d.BuildFrac > 0 {
		r.buildEvents = int(float64(events) * d.BuildFrac)
	}
	for i := 0; i < threads; i++ {
		w := eng.NewThread(fmt.Sprintf("%s-worker-%d", d.Name, i))
		w.SetKernelFraction(d.KernelFrac)
		r.workers = append(r.workers, w)
	}
	col.RegisterMutator(r.workers...)
	if rec := obs.Or(cfg.Recorder); rec.Enabled() {
		// Continuous sampling rides the same stream as the discrete events:
		// heap occupancy, declared live set, the mutator/GC CPU split and
		// pacer throttling, at a fixed virtual cadence with stride-doubling
		// decimation (see internal/obs/sample).
		sample.New(rec, sample.Gauges{
			HeapUsed:     h.Used,
			LiveEst:      h.TargetLive,
			GCCPUNS:      col.GCCPU,
			MutatorCPUNS: r.mutatorCPU,
			StallNS:      func() float64 { return r.log.StallNS },
		}).Attach(eng)
	}
	return r, nil
}

// Run executes the workload under cfg and returns its measurements.
func Run(d *Descriptor, cfg RunConfig) (*Result, error) {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	r, err := newRunner(d, cfg, s)
	if err != nil {
		return nil, err
	}
	defer r.release()
	cfg = r.cfg // normalized defaults (machine, iterations)
	if d.LatencySensitive || cfg.RecordLatency {
		// One latency buffer per run, reused across recorded iterations; the
		// final iteration's events become Result.Events.
		r.latencies = make([]Event, 0, r.events)
	}

	res := &Result{Workload: d.Name, Config: cfg}
	for iter := 0; iter < cfg.Iterations; iter++ {
		var it IterationResult
		var err error
		if cfg.OpenLoop {
			it, err = r.runOpenLoopIteration(iter)
		} else {
			it, err = r.runIteration(iter)
		}
		if err != nil {
			return nil, err
		}
		res.Iterations = append(res.Iterations, it)
	}
	res.Events = r.latencies
	res.Log = r.log.Clone()
	res.GCCPUNS = r.col.GCCPU()
	res.MutatorCPUNS = r.mutatorCPU()
	return res, nil
}

// hashName derives a per-workload seed component (FNV-1a).
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// targetLive returns the declared live set for an iteration, including leak.
func (r *runner) targetLive(iter int) float64 {
	return r.d.LiveMB*MB + r.d.LeakMBPerIter*MB*float64(iter)
}

func (r *runner) runIteration(iter int) (IterationResult, error) {
	r.iter = iter
	r.nextEvent = 0
	r.recording = iter == r.cfg.Iterations-1 &&
		(r.d.LatencySensitive || r.cfg.RecordLatency)
	if r.recording {
		r.latencies = r.latencies[:0] // preallocated once in Run, reused
	}
	if iter == 0 && r.buildEvents > 0 {
		// The live set ramps up as the build phase progresses.
		r.h.SetTargetLive(0)
	} else {
		r.h.SetTargetLive(r.targetLive(iter))
	}

	start := r.eng.Now()
	cpu0 := r.eng.TaskClock() // O(1) running aggregate, cheap per iteration
	alloc0 := r.h.TotalAllocated()
	kern0 := r.kernelCPU()

	for _, w := range r.workers {
		r.startNext(w)
	}
	if err := r.eng.Run(); err != nil {
		return IterationResult{}, fmt.Errorf("%s: %w", r.d.Name, err)
	}
	if r.oom {
		return IterationResult{}, &ErrOutOfMemory{r.d.Name, r.cfg.HeapMB, r.cfg.Collector}
	}
	end := r.eng.Now()
	return IterationResult{
		WallNS:    float64(end - start),
		CPUNS:     r.eng.TaskClock() - cpu0,
		KernelNS:  r.kernelCPU() - kern0,
		Allocated: r.h.TotalAllocated() - alloc0,
		StartNS:   start,
		EndNS:     end,
	}, nil
}

func (r *runner) kernelCPU() float64 {
	var sum float64
	for _, w := range r.workers {
		sum += w.KernelCPU()
	}
	return sum
}

// mutatorCPU derives total worker CPU for the sampler's utilization gauge in
// O(1): the engine's task clock covers every thread, so subtracting the
// collector's share leaves the mutators'. The sampler reads this gauge on
// every tick, so an O(threads) sum here would scale sampling cost with the
// machine model.
func (r *runner) mutatorCPU() float64 {
	return r.eng.TaskClock() - r.col.GCCPU()
}

// allocSliceBytes bounds a single allocation request so that one event's
// allocation cannot dwarf a small heap; events allocating more are split
// into slices with the service CPU interleaved, which also lets GC activity
// land mid-event as it does in reality.
const allocSliceBytes = 512 << 10

// startNext has worker w claim and process the next event of the iteration:
// allocate (possibly stalling in GC), burn service CPU, record, repeat.
func (r *runner) startNext(w *sim.Thread) {
	if r.oom || r.nextEvent >= r.events {
		return // worker parks; the engine drains when all park
	}
	f := r.newFrame()
	f.w = w
	f.idx = r.nextEvent
	f.open = false
	f.start = r.eng.Now()
	r.nextEvent++
	f.begin()
}
