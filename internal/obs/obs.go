// Package obs is the run-telemetry observability layer: a zero-dependency
// structured event stream plus lightweight counters and fixed-bucket
// histograms, behind a Recorder interface whose disabled path costs nothing.
//
// The paper's diagnostic work — reading Shenandoah's GC log to explain the
// lusearch anomaly (§6.3), attributing concurrent-collector CPU that hides
// from wall clock — needs per-run visibility that aggregate results cannot
// give. Every layer of this system therefore emits typed events through a
// Recorder: the simulator reports scheduler quiescent points and transition
// counts, collectors report GC phase start/end, pacer stalls, degenerations
// and OOMs, and the experiment engine reports job lifecycle and cache
// accounting. A JSONL sink serializes the stream for offline analysis
// (cmd/obsreport turns it back into per-phase breakdowns and stall
// histograms).
//
// # Hot-path discipline
//
// Recording must never tax a run that is not being observed. The contract:
//
//   - callers hold a non-nil Recorder (use Nop, never nil) and guard every
//     emission with Enabled(), so the disabled cost is one boolean method
//     call — components on per-event paths (the simulator engine) cache the
//     boolean once instead;
//   - Event is a flat value struct: constructing and passing one does not
//     allocate; all allocation (JSON encoding, buffering) happens inside
//     enabled sinks.
package obs

import (
	"fmt"
	"sync"
)

// Kind classifies a telemetry event.
type Kind uint8

// Event kinds, grouped by the layer that emits them.
const (
	// KindGCPhaseStart and KindGCPhaseEnd bracket one collection phase
	// (young, full, concurrent, mixed, degenerate). The end event carries
	// the phase's STW wall time (DurNS), its GC CPU (CPUNS) and the bytes
	// reclaimed (Value).
	KindGCPhaseStart Kind = iota
	KindGCPhaseEnd
	// KindGCPause is one stop-the-world interval (DurNS its wall time). A
	// concurrent cycle pauses twice (initial + final) but logs one phase-end
	// event, so pause events — not phase events — are what sum to the run's
	// reported STW time.
	KindGCPause
	// KindPacerStall is one allocation throttled by a concurrent collector's
	// pacer; DurNS is the stall length.
	KindPacerStall
	// KindDegenerateGC marks a concurrent cycle losing the race to the
	// application and falling back to a stop-the-world full collection.
	KindDegenerateGC
	// KindOOM marks the collector exhausting every option for an allocation.
	KindOOM
	// KindQuiescent is a scheduler quiescent point: no runnable threads and
	// no pending timers. DurNS is the virtual time advanced since the
	// previous quiescent point, Value the engine transitions processed, and
	// Aux the timers fired.
	KindQuiescent
	// KindJobStart and KindJobFinish bracket one experiment-engine job
	// (simulator invocation). The finish event carries whole-run wall
	// (DurNS) and task-clock (CPUNS) totals; Err is set if the job failed.
	KindJobStart
	KindJobFinish
	// KindCacheHit and KindCacheMiss record result-cache accounting for a
	// job key: a hit satisfies the job without simulation, a miss sends it
	// to the worker pool.
	KindCacheHit
	KindCacheMiss
	// KindMinHeap records a completed minimum-heap measurement; Value is the
	// measured bound in MB.
	KindMinHeap
	// KindSample is one continuous-sampling tick (internal/obs/sample): a
	// fixed-virtual-interval reading of heap occupancy, live-set estimate,
	// CPU utilization split and pacer-throttle fraction, carried in the
	// dedicated sampling fields.
	KindSample
	// KindRunEnd terminates a telemetry stream: the JSONL sink writes it on
	// Close, so a decoded stream without one is crash-truncated rather than
	// merely short. Value carries the number of events recorded before it.
	KindRunEnd
	// KindSchedWorker is one pool worker's lifetime scheduling summary,
	// emitted by the experiment engine when it closes: the worker's
	// busy/steal/park wall-time split, task count, steal count
	// and deque high-water mark, carried in the dedicated scheduler
	// fields. Value is the worker index.
	KindSchedWorker
	// KindFleetReplica is one replica's end-of-run serving summary in a
	// fleet simulation (internal/fleet): Value is the replica index, Aux its
	// completed request count, DurNS its p99 latency, CPUNS its task-clock
	// total, HeapUsed its peak heap occupancy.
	KindFleetReplica
	// KindFleetRetry is one timed-out request re-injected into the fleet:
	// TNS the retry's injection (= original completion) time, Value the
	// request ID, Aux its retry depth, DurNS the latency that breached the
	// timeout.
	KindFleetRetry
	// KindFleetReport is the fleet-level SLO summary, one per fleet run:
	// Value the replica count, Aux total completed requests, DurNS the fleet
	// p99 latency, CPUNS the fleet task-clock total, StallFrac the host CPU
	// pressure (task clock over host-core wall capacity).
	KindFleetReport
	// KindFleetRoute is one balancer decision: TNS the injection (arrival)
	// time, Value the request ID, Cycle the attempt number (0 = first try),
	// Replica the chosen replica, Phase the decision reason (round-robin,
	// least-outstanding, gc-aware, gc-aware-avoid, gc-aware-fallback), Aux
	// the number of mid-STW replicas the balancer routed around, InFlight the
	// chosen replica's outstanding count after the decision.
	KindFleetRoute
	// KindFleetRequest is one completed logical request with its exact blame
	// decomposition: TNS the completion time, Aux the first arrival time,
	// Value the request ID, Replica the replica that served the final
	// attempt, Cycle the attempt count (1 = no retries), DurNS the
	// end-to-end latency, and QueueNS + GCNS + ServiceNS + RetryNS the blame
	// split, which sums exactly to DurNS. GCPauses counts the distinct STW
	// pauses the final attempt overlapped.
	KindFleetRequest
	// KindFleetWindow is one per-replica sliding-window fleet sample: TNS
	// the window end, DurNS the window length, Replica the replica, Value
	// the completions inside the window, Aux the SLO violations among them,
	// InFlight the replica's in-flight count at the window end, Goodput the
	// SLO-meeting completions per second, BurnRate the window's SLO burn
	// rate (violation fraction over the error budget; 1.0 = burning exactly
	// the budget).
	KindFleetWindow

	// KindUnknown is the sentinel lenient decoders assign to event kinds
	// written by a newer schema than this binary understands. It is never
	// recorded; DecodeStream counts and skips these (StreamInfo.Unknown).
	KindUnknown Kind = 255
)

var kindNames = [...]string{
	KindGCPhaseStart: "gc-phase-start",
	KindGCPhaseEnd:   "gc-phase-end",
	KindGCPause:      "gc-pause",
	KindPacerStall:   "pacer-stall",
	KindDegenerateGC: "degenerate-gc",
	KindOOM:          "oom",
	KindQuiescent:    "quiescent",
	KindJobStart:     "job-start",
	KindJobFinish:    "job-finish",
	KindCacheHit:     "cache-hit",
	KindCacheMiss:    "cache-miss",
	KindMinHeap:      "minheap",
	KindSample:       "sample",
	KindRunEnd:       "run_end",
	KindSchedWorker:  "sched-worker",
	KindFleetReplica: "fleet-replica",
	KindFleetRetry:   "fleet-retry",
	KindFleetReport:  "fleet-report",
	KindFleetRoute:   "fleet-route",
	KindFleetRequest: "fleet-request",
	KindFleetWindow:  "fleet-window",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	if k == KindUnknown {
		return "unknown"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a kind name as written to JSONL streams.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// MarshalText renders the kind by name, so JSONL streams are self-describing.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind by name. Unlike ParseKind it is lenient: a
// name this binary does not know (a stream written by a newer schema) decodes
// as KindUnknown instead of failing, so old readers skip new event kinds
// rather than rejecting the whole stream (DecodeStream counts them).
func (k *Kind) UnmarshalText(b []byte) error {
	*k = kindNamed(b)
	return nil
}

// Event is one telemetry record. It is a flat value struct so constructing
// one on an enabled path allocates nothing; unused fields marshal away.
type Event struct {
	Kind Kind `json:"kind"`
	// Seq is the event's position in its stream, assigned by the JSONL sink
	// (1, 2, 3, …). Decoders use it to surface dropped or reordered events
	// (DecodeStream); zero means the event never passed through a
	// seq-assigning sink.
	Seq int64 `json:"seq,omitempty"`
	// TNS is the event's timestamp in nanoseconds. Events emitted from
	// inside a simulation carry virtual time; engine-level job events carry
	// host wall-clock time (the two layers are never compared).
	TNS int64 `json:"t_ns"`
	// Run identifies the invocation the event belongs to — the engine job
	// key when the run executes as an engine job. Streams from concurrent
	// runs interleave; Run is what obsreport groups by.
	Run       string `json:"run,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	Collector string `json:"collector,omitempty"`
	// Phase names the GC phase for phase events (young, full, concurrent,
	// mixed, degenerate).
	Phase string `json:"phase,omitempty"`
	// DurNS is the event's duration: STW wall time for gc-phase-end, stall
	// length for pacer-stall, whole-run wall for job-finish.
	DurNS float64 `json:"dur_ns,omitempty"`
	// CPUNS is GC CPU for gc-phase-end, whole-run task clock for job-finish.
	CPUNS float64 `json:"cpu_ns,omitempty"`
	// Value and Aux carry kind-specific magnitudes (bytes reclaimed,
	// transition counts, measured heap MB).
	Value float64 `json:"value,omitempty"`
	Aux   float64 `json:"aux,omitempty"`
	// Cycle is the collection the event belongs to: collectors assign every
	// collection (young, full, concurrent cycle) a per-run ID, stamped on
	// its phase-start/phase-end and gc-pause events. The span builder uses
	// it to nest pauses inside their cycle.
	Cycle int64 `json:"cycle,omitempty"`
	// Cause is the ID of the cycle that *caused* this event without owning
	// it: the concurrent cycle whose pacer stalled an allocation
	// (pacer-stall), or the cancelled cycle behind a degeneration.
	Cause int64 `json:"cause,omitempty"`
	// Sampling fields (KindSample). HeapUsed and LiveEst are bytes at the
	// tick; MutFrac and GCFrac split machine CPU capacity over the interval
	// since the previous emitted sample (idle is the remainder); StallFrac
	// is pacer-stall wall time per wall time over the same interval (can
	// exceed 1 when several mutators stall concurrently).
	HeapUsed  float64 `json:"heap_used,omitempty"`
	LiveEst   float64 `json:"live_est,omitempty"`
	MutFrac   float64 `json:"mut_frac,omitempty"`
	GCFrac    float64 `json:"gc_frac,omitempty"`
	StallFrac float64 `json:"stall_frac,omitempty"`
	// Scheduler fields (KindSchedWorker). BusyNS/StealNS/ParkNS split one
	// worker's wall time into executing tasks, scanning deques and blocked
	// on the parking condvar; Tasks counts tasks executed; Steals counts
	// tasks taken from peers; QueueMax is the worker's deque high-water
	// depth.
	BusyNS   float64 `json:"busy_ns,omitempty"`
	StealNS  float64 `json:"steal_ns,omitempty"`
	ParkNS   float64 `json:"park_ns,omitempty"`
	Tasks    float64 `json:"tasks,omitempty"`
	Steals   float64 `json:"steals,omitempty"`
	QueueMax float64 `json:"queue_max,omitempty"`
	// Replica identifies which fleet replica the event belongs to, stored
	// 1-based so replica 0 survives omitempty; zero means "not a fleet
	// replica event". Stamped by WithReplica on everything a replica's own
	// engine emits (gc-pause, sample, …) and set directly on fleet-route /
	// fleet-request / fleet-window events. The span builder partitions by it
	// so per-replica cycle IDs (each collector counts 1, 2, 3, …) never
	// collide across a merged fleet stream.
	Replica int `json:"replica,omitempty"`
	// Blame fields (KindFleetRequest): the exact integer decomposition of
	// the request's end-to-end latency. QueueNS is time between the final
	// attempt's arrival and its dispatch to a worker, net of STW pauses;
	// GCNS is the STW pause wall time overlapping the final attempt; ServiceNS
	// is dispatch-to-completion net of pauses (mutator work plus pacer
	// stalls); RetryNS is everything before the final attempt's arrival
	// (earlier attempts and timeout waits). The invariant
	// QueueNS+GCNS+ServiceNS+RetryNS == DurNS holds exactly, in int64
	// arithmetic, for every completed request.
	QueueNS   int64 `json:"queue_ns,omitempty"`
	GCNS      int64 `json:"gc_ns,omitempty"`
	ServiceNS int64 `json:"service_ns,omitempty"`
	RetryNS   int64 `json:"retry_ns,omitempty"`
	// GCPauses counts the distinct STW pauses overlapping the final attempt.
	GCPauses int64 `json:"gc_pauses,omitempty"`
	// Windowed fleet fields (KindFleetWindow, and InFlight on
	// KindFleetRoute): instantaneous in-flight requests, SLO-meeting
	// completions per second, and SLO budget burn rate over the window.
	InFlight int64   `json:"in_flight,omitempty"`
	Goodput  float64 `json:"goodput,omitempty"`
	BurnRate float64 `json:"burn_rate,omitempty"`
	// Err is the failure message on job-finish of a failed job, or "oom".
	Err string `json:"err,omitempty"`
}

// Recorder receives telemetry. Implementations must be safe for concurrent
// use: events arrive from every worker of an experiment pool at once.
type Recorder interface {
	// Enabled reports whether Record does anything; callers use it to skip
	// event construction entirely on hot paths.
	Enabled() bool
	// Record consumes one event.
	Record(Event)
}

// nop is the disabled recorder.
type nop struct{}

func (nop) Enabled() bool { return false }
func (nop) Record(Event)  {}

// Nop is the no-op Recorder: Enabled is false and Record does nothing. Use
// it instead of a nil Recorder so call sites never nil-check.
var Nop Recorder = nop{}

// Or returns r, or Nop when r is nil — the standard defaulting for optional
// Recorder fields.
func Or(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}

// runStamp wraps a Recorder, stamping run identity onto every event that
// does not already carry one. The engine wraps its recorder per job so
// events from concurrently executing invocations stay attributable.
type runStamp struct {
	r         Recorder
	run       string
	benchmark string
	collector string
}

// WithRun returns a Recorder that stamps run, benchmark and collector onto
// events recorded through it (without overwriting fields already set).
// Stamping a disabled recorder returns it unchanged.
func WithRun(r Recorder, run, benchmark, collector string) Recorder {
	r = Or(r)
	if !r.Enabled() {
		return r
	}
	return &runStamp{r: r, run: run, benchmark: benchmark, collector: collector}
}

func (s *runStamp) Enabled() bool { return true }

func (s *runStamp) Record(e Event) {
	if e.Run == "" {
		e.Run = s.run
	}
	if e.Benchmark == "" {
		e.Benchmark = s.benchmark
	}
	if e.Collector == "" {
		e.Collector = s.collector
	}
	s.r.Record(e)
}

// replicaStamp wraps a Recorder, stamping a fleet replica index onto every
// event that does not already carry one. The fleet driver wraps the shared
// recorder once per replica, so GC and sampling telemetry emitted from inside
// a replica's engine stays attributable after the streams merge.
type replicaStamp struct {
	r       Recorder
	replica int // 1-based, as stored on Event.Replica
}

// WithReplica returns a Recorder that stamps fleet replica idx (0-based, as
// the fleet numbers replicas) onto events recorded through it. Stamping a
// disabled recorder returns it unchanged.
func WithReplica(r Recorder, idx int) Recorder {
	r = Or(r)
	if !r.Enabled() {
		return r
	}
	return &replicaStamp{r: r, replica: idx + 1}
}

func (s *replicaStamp) Enabled() bool { return true }

func (s *replicaStamp) Record(e Event) {
	if e.Replica == 0 {
		e.Replica = s.replica
	}
	s.r.Record(e)
}

// Buffer is a Recorder that captures events in memory, in arrival order. It
// is safe for concurrent use; commands use it to keep a run's telemetry for
// post-run rendering (fleet timelines) alongside — or instead of — a JSONL
// file.
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

// Enabled always reports true.
func (b *Buffer) Enabled() bool { return true }

// Record appends the event.
func (b *Buffer) Record(e Event) {
	b.mu.Lock()
	b.reserve(1)
	b.events = append(b.events, e)
	b.mu.Unlock()
}

// RecordBatch appends a batch under one lock acquisition.
func (b *Buffer) RecordBatch(evs []Event) {
	b.mu.Lock()
	b.reserve(len(evs))
	b.events = append(b.events, evs...)
	b.mu.Unlock()
}

// reserve makes room for n more events by doubling the capacity. At
// append's 1.25× growth for large slices, a buffer filled one event at a
// time is zeroed and copied about four times over, and that was ~40% of a
// recorder-on fleet run.
func (b *Buffer) reserve(n int) {
	if need := len(b.events) + n; need > cap(b.events) {
		b.events = append(make([]Event, 0, max(need, 2*cap(b.events), 256)), b.events...)
	}
}

// Events returns the captured events. The slice is shared — callers must not
// record concurrently with using it.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.events
}

// Multi fans every event out to each of rs (disabled ones are dropped). It
// returns Nop when none are enabled, so the Enabled guard stays accurate.
func Multi(rs ...Recorder) Recorder {
	var live []Recorder
	for _, r := range rs {
		if r != nil && r.Enabled() {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Recorder

func (m multi) Enabled() bool { return true }
func (m multi) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}

func (m multi) RecordBatch(evs []Event) {
	for _, r := range m {
		RecordAll(r, evs)
	}
}

// BatchRecorder is implemented by sinks that can consume a whole batch of
// events under one lock acquisition (JSONL does). Per-job buffers flush
// through it at job boundaries, so concurrently executing invocations
// contend the shared sink once per job instead of once per event.
type BatchRecorder interface {
	Recorder
	RecordBatch([]Event)
}

// RecordAll delivers evs to r, using its batch path when it has one and
// falling back to per-event Record otherwise.
func RecordAll(r Recorder, evs []Event) {
	if r == nil || !r.Enabled() || len(evs) == 0 {
		return
	}
	if br, ok := r.(BatchRecorder); ok {
		br.RecordBatch(evs)
		return
	}
	for _, e := range evs {
		r.Record(e)
	}
}
