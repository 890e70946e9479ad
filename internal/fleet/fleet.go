// Package fleet simulates a serving fleet: N replica instances of one
// workload — each a complete simulated process with its own heap, collector
// and JIT warmup state — behind a load balancer, fed by an open-loop arrival
// process on one shared virtual clock.
//
// The paper's single-invocation methodology measures how one JVM behaves
// under GC pressure; production latency is a fleet property. A request that
// lands on a replica mid-pause waits out the pause, but a balancer that can
// see load (or pauses) routes around it — so fleet tail latency depends on
// the interaction of collector, policy and arrival burstiness, which is
// exactly the grid this package sweeps.
//
// Determinism: replicas are independent engines interleaved by a sim.Cluster
// in global event-time order, arrivals are a pure function of the fleet seed,
// and the driver injects each arrival before the cluster steps past its time
// (so timer deadlines are exact). A whole fleet run is therefore a pure
// function of (descriptor, Config) — byte-identical across hosts, worker
// counts and repetitions — and a single-replica fleet under constant arrivals
// reproduces the standalone open-loop runner exactly.
package fleet

import (
	"fmt"
	"sync"

	"chopin/internal/cpuarch"
	"chopin/internal/obs"
	"chopin/internal/sim"
	"chopin/internal/workload"
)

// replicaSeedStride separates per-replica RNG streams: replica i runs with
// Run.Seed + i*stride, so replica 0 of any fleet is bit-identical to a
// standalone invocation at the base seed (the N=1 oracle), while siblings
// behave like distinct invocations. A large odd stride keeps the splitmix64
// streams uncorrelated.
const replicaSeedStride = 1_000_003

// stepBudget caps total fleet simulation events, mirroring the standalone
// runner's per-engine safety net: a mis-sized fleet (arrival rate far beyond
// capacity) diverges by queueing, not by hanging the sweep.
const stepBudget = 500_000_000

// Config parameterizes one fleet run. The zero value of optional fields
// selects documented defaults; Run carries the per-replica invocation
// configuration exactly as workload.Run would take it.
type Config struct {
	// Replicas is the fleet size N (default 1).
	Replicas int `json:"replicas"`
	// Policy selects the load balancer (default RoundRobin).
	Policy Policy `json:"policy,omitempty"`
	// Arrival selects and parameterizes the arrival process (default
	// constant rate).
	Arrival ArrivalSpec `json:"arrival,omitempty"`
	// Requests is the total number of fleet arrivals; 0 means
	// Replicas × events × iterations — the same per-replica volume a
	// standalone run would serve.
	Requests int `json:"requests,omitempty"`
	// Run is the per-replica invocation config. OpenLoop is implied;
	// OpenLoopHeadroom stretches the fleet's mean inter-arrival interval
	// exactly as it stretches the standalone runner's. Seed is the fleet
	// seed: replica i simulates at Seed + i*1000003, and the arrival
	// process draws from its own stream derived from Seed. Its Recorder
	// must be nil: replicas record through Run's recorder.
	Run workload.RunConfig `json:"run"`
	// RetryAfterNS re-injects a request whose latency exceeded this bound —
	// the client-side timeout-and-retry that turns a GC pause into a retry
	// storm. 0 disables retries.
	RetryAfterNS float64 `json:"retry_after_ns,omitempty"`
	// MaxRetries bounds retries per request (default 3 when retries are on).
	MaxRetries int `json:"max_retries,omitempty"`
	// HostCores is the physical core budget the fleet is co-located onto,
	// the denominator of the host-CPU pressure metric. 0 means
	// Replicas × machine cores: every replica fully provisioned, no
	// co-location pressure. Co-location never alters the simulation — it is
	// reported, not modeled, so workload-identical cells stay cacheable.
	HostCores int `json:"host_cores,omitempty"`
}

// arrivalSeedSalt separates the arrival process's RNG stream from every
// replica stream derived from the same fleet seed.
const arrivalSeedSalt = 0x6f1e_e7a1_12b5_9bd1

// normalize fills cfg's defaults against the descriptor.
func (cfg Config) normalize(d *workload.Descriptor) Config {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Policy == "" {
		cfg.Policy = RoundRobin
	}
	if cfg.Requests <= 0 {
		ev := cfg.Run.Events
		if ev <= 0 {
			ev = d.Events
		}
		iters := cfg.Run.Iterations
		if iters < 1 {
			iters = 1
		}
		cfg.Requests = cfg.Replicas * ev * iters
	}
	if cfg.RetryAfterNS > 0 && cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.HostCores <= 0 {
		m := cfg.Run.Machine
		if m.Name == "" {
			m = cpuarch.Zen4
		}
		cfg.HostCores = cfg.Replicas * m.Cores
	}
	return cfg
}

// pendingRetry is one queued re-injection: request id retries at virtual
// time t. Retries are created in completion-time order, so the queue is FIFO
// in non-decreasing t.
type pendingRetry struct {
	t  float64
	id int32
}

// Run executes one fleet simulation and returns its report. rec receives
// fleet telemetry (per-replica summaries, retry events, the fleet report);
// obs.Nop disables it. The run is deterministic in (d, cfg).
func Run(d *workload.Descriptor, cfg Config, rec obs.Recorder) (*Report, error) {
	fr, err := newFleetRun(d, cfg, rec)
	if err != nil {
		return nil, err
	}
	return fr.report()
}

// fleetScratch is a run's reusable state: retry depth per logical request, the
// pending-retry queue, and each replica's workload.Scratch (its GC log,
// arrival queue and latency record), indexed by replica so a rerun of the
// same fleet hands every replica the storage it grew last time. Reusing it
// (and the tracer's per-replica accumulators) keeps the driving loop free of
// allocations after warmup at any fleet size and request count — the
// property the scale benchmark asserts with allocs/op.
type fleetScratch struct {
	depth   []int32
	retries []pendingRetry
	runs    []workload.Scratch
}

// freeScratch holds released fleet scratch for later runs. It is a plain
// free list, not a sync.Pool: a pool can hand the next run a fresh scratch
// (a collection emptied it, or the goroutine resumed on another P than the
// one that put it back), and a fresh scratch grows its replicas' logs
// inside the driving loop. The list holds at most one scratch per fleet run
// that was ever in flight at once.
var freeScratch struct {
	sync.Mutex
	list []*fleetScratch
}

func getScratch(requests, replicas int) *fleetScratch {
	var s *fleetScratch
	freeScratch.Lock()
	if n := len(freeScratch.list); n > 0 {
		s = freeScratch.list[n-1]
		freeScratch.list = freeScratch.list[:n-1]
	}
	freeScratch.Unlock()
	if s == nil {
		s = new(fleetScratch)
	}
	s.runs = grow(s.runs, replicas)
	if cap(s.depth) < requests {
		s.depth = make([]int32, requests)
	} else {
		s.depth = s.depth[:requests]
		for i := range s.depth {
			s.depth[i] = 0
		}
	}
	s.retries = s.retries[:0]
	return s
}

// eventIndex finds the replica whose next event is globally earliest, as
// sim.Cluster.Peek does; it is all the driving loop asks of the cluster.
type eventIndex interface {
	Peek() (idx int, at float64, ok bool)
}

// fleetRun is one fleet simulation, split into construction (newFleetRun:
// replicas, cluster, balancer, tracer — everything O(N)) and the driving loop
// (run), so the hot loop's cost profile can be measured and reasoned about in
// isolation from setup.
type fleetRun struct {
	d       *workload.Descriptor
	cfg     Config
	rec     obs.Recorder
	reps    []*workload.Replica
	engines []*sim.Engine
	backs   []backend
	bal     balancer
	cluster eventIndex
	proc    arrivalProcess
	tr      *tracer
	scratch *fleetScratch
	retried int64
	steps   int64 // simulation events processed by run, for per-event metrics
}

// report drives the fleet to completion, then builds and records its
// report.
func (fr *fleetRun) report() (*Report, error) {
	if err := fr.run(); err != nil {
		return nil, err
	}
	rep := buildReport(fr.d, fr.cfg, fr.reps, fr.retried)
	recordReport(fr.rec, fr.d, fr.cfg, fr.reps, rep)
	fr.release()
	return rep, nil
}

// newFleetRun validates the config and builds the fleet: replicas with their
// engines, the cluster event index, the indexed balancer and, when observed,
// the tracer. Everything that allocates proportionally to N happens here.
// The differential tests swap linear oracles into cluster and bal before
// run.
func newFleetRun(d *workload.Descriptor, cfg Config, rec obs.Recorder) (*fleetRun, error) {
	fr := &fleetRun{d: d, cfg: cfg, rec: obs.Or(rec)}
	if err := cfg.Validate(); err != nil {
		return fr, err
	}
	cfg = cfg.normalize(d)
	fr.cfg = cfg
	rec = fr.rec

	bal, err := newBalancer(cfg.Policy, cfg.Replicas)
	if err != nil {
		return fr, err
	}
	fr.bal = bal

	fr.reps = make([]*workload.Replica, cfg.Replicas)
	fr.engines = make([]*sim.Engine, cfg.Replicas)
	fr.backs = make([]backend, cfg.Replicas)
	// Drawn first: each replica is built on its own entry of it.
	fr.scratch = getScratch(cfg.Requests, cfg.Replicas)
	for i := range fr.reps {
		rcfg := cfg.Run
		rcfg.Seed += uint64(i) * replicaSeedStride
		if rec.Enabled() {
			// Give each replica engine its own stamped recorder, so GC and
			// sampling telemetry emitted from inside the replica merges into
			// the fleet stream attributed to its replica (the timeline's STW
			// and load tracks). Recording never perturbs the simulation, so
			// results stay identical to an unobserved run.
			rcfg.Recorder = obs.WithRun(obs.WithReplica(rec, i), "", d.Name,
				rcfg.Collector.String())
		}
		rp, err := workload.NewReplica(d, rcfg, i, &fr.scratch.runs[i])
		if err != nil {
			return fr, err
		}
		fr.reps[i] = rp
		fr.engines[i] = rp.Engine()
		fr.backs[i] = rp
	}
	if ga, ok := fr.bal.(*gcAwareIndex); ok {
		// The indexed gc-aware policy keeps pause state in its tree instead of
		// polling Paused() per pick: each collector pushes its pause-world /
		// resume transitions as they happen.
		for i, rp := range fr.reps {
			rp.SetPauseHook(func(paused bool) { ga.setPaused(i, paused) })
		}
	}
	// tr stays nil — every tracer method's disabled path is one branch —
	// unless the run is observed.
	if rec.Enabled() {
		fr.tr = newTracer(rec, d, cfg, fr.reps)
	}

	// The fleet's mean inter-arrival interval divides the per-replica
	// open-loop interval by N: each replica sees, on average, the load a
	// standalone run would offer it. For N=1 the division is an exact
	// identity, which the oracle test depends on.
	perReplica, err := fr.reps[0].Interval()
	if err != nil {
		return fr, err
	}
	meanNS := perReplica / float64(cfg.Replicas)

	startF := fr.engines[0].NowF()
	spec, err := cfg.Arrival.normalize(meanNS * float64(cfg.Requests))
	if err != nil {
		return fr, err
	}
	fr.cfg.Arrival = spec
	fr.proc = newArrival(spec, meanNS, startF, cfg.Requests,
		sim.NewRNG(cfg.Run.Seed^arrivalSeedSalt))

	fr.cluster = sim.NewCluster(fr.engines...)
	return fr, nil
}

// run is the driving loop: interleave arrivals, retries and cluster steps in
// global virtual-time order until the fleet drains. Per-event work is O(log N)
// — a cluster peek/step, a balancer root read plus count updates — and
// allocation-free after warmup (scratch and tracer state are pooled).
func (fr *fleetRun) run() error {
	d, cfg := fr.d, fr.cfg
	bal, cluster, reps, tr := fr.bal, fr.cluster, fr.reps, fr.tr
	depth, retries := fr.scratch.depth, fr.scratch.retries
	var (
		arrIdx    int     // next fresh arrival to draw
		nextArr   float64 // its time, valid while arrIdx < Requests
		retryHead int
		lastEnd   int64
	)
	if cfg.Requests > 0 {
		nextArr = fr.proc.next(0)
	}

	for {
		// Choose the next injection: earliest of the fresh-arrival stream
		// and the retry queue, retries first on ties (the retried request
		// has been waiting longer than any same-instant fresh arrival).
		injT, injID, haveInj, isRetry := 0.0, int32(0), false, false
		if retryHead < len(retries) {
			injT, injID, haveInj, isRetry = retries[retryHead].t, retries[retryHead].id, true, true
		}
		if arrIdx < cfg.Requests && (!haveInj || nextArr < injT) {
			injT, injID, haveInj, isRetry = nextArr, int32(arrIdx), true, false
		}

		idx, at, ok := cluster.Peek()
		if haveInj && (!ok || injT <= at) {
			// Inject before the cluster steps past injT: every engine's
			// clock is still at or before injT, so the arrival timer's
			// deadline is exact.
			dec := bal.pick(fr.backs)
			tr.route(int64(injT), injID, dec)
			reps[dec.Replica].InjectAt(injT, injID)
			bal.inject(dec.Replica)
			if isRetry {
				retryHead++
				if retryHead == len(retries) {
					retries, retryHead = retries[:0], 0
				}
			} else {
				arrIdx++
				if arrIdx < cfg.Requests {
					nextArr = fr.proc.next(arrIdx)
				}
			}
			continue
		}
		if !ok {
			break // quiescent with nothing left to inject: drained
		}

		fr.engines[idx].Step()
		fr.steps++
		if fr.steps > stepBudget {
			return fmt.Errorf("fleet: %s: event budget exceeded after %d events (rate beyond fleet capacity?)",
				d.Name, stepBudget)
		}
		rp := reps[idx]
		if rp.OOM() {
			return rp.OOMErr()
		}
		for _, c := range rp.DrainCompletions() {
			bal.complete(idx)
			if c.End > lastEnd {
				lastEnd = c.End
			}
			lat := float64(c.End - c.Start)
			willRetry := cfg.RetryAfterNS > 0 && lat > cfg.RetryAfterNS &&
				depth[c.ID] < int32(cfg.MaxRetries)
			tr.complete(idx, c, !willRetry)
			if willRetry {
				depth[c.ID]++
				fr.retried++
				// Re-inject at the step's exact float time (== the
				// completion instant) rather than the truncated c.End, so
				// the retry timer never lands behind the engine clock.
				retries = append(retries, pendingRetry{t: at, id: c.ID})
				tr.retry(idx, c, depth[c.ID], lat)
			}
		}
	}
	tr.finish(lastEnd)

	if arrIdx < cfg.Requests || retryHead < len(retries) {
		return fmt.Errorf("fleet: %s: cluster went quiescent with %d arrivals and %d retries pending",
			d.Name, cfg.Requests-arrIdx, len(retries)-retryHead)
	}
	for _, rp := range reps {
		if n := rp.Outstanding(); n != 0 {
			return fmt.Errorf("fleet: %s: replica %d lost %d requests",
				d.Name, rp.Index(), n)
		}
	}

	fr.scratch.retries = retries
	return nil
}

// release recycles the run's pooled state after a successful run: the
// tracer, then every replica's scratch (workload.Replica.Release), then the
// fleet scratch that holds them, so the next run's replicas append into
// storage this run already grew. It runs once the report is built —
// buildReport reads the replicas' latencies — and is a
// separate step (not the tail of run) so the scale benchmark times only the
// driving loop: a sync.Pool Put can rebuild its per-P chain after a GC —
// once-per-run housekeeping, not per-event cost. Error paths never release —
// the next run draws fresh state rather than inherit possibly-inconsistent
// scratch.
func (fr *fleetRun) release() {
	fr.tr.release()
	fr.tr = nil
	for _, rp := range fr.reps {
		rp.Release()
	}
	freeScratch.Lock()
	freeScratch.list = append(freeScratch.list, fr.scratch)
	freeScratch.Unlock()
	fr.scratch = nil
}
