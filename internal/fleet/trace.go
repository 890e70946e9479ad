package fleet

import (
	"sync"

	"chopin/internal/latency"
	"chopin/internal/obs"
	"chopin/internal/obs/sample"
	"chopin/internal/sim"
	"chopin/internal/trace"
	"chopin/internal/workload"
)

// Request tracing and blame attribution.
//
// When the fleet runs with an enabled recorder, every request is traced end
// to end on the shared virtual clock: the balancer decision that routed it
// (with the reason — including "routed away from a mid-STW replica"), its
// queue wait on the chosen replica, the dispatch to a worker, the specific
// stop-the-world pauses that preempted it, retry hops, and completion. The
// tracer turns that segment stream into three telemetry families:
//
//   - fleet-route: one event per injection (fresh arrival or retry) carrying
//     the balancer's Decision;
//   - fleet-request: one event per *logical* request at its final
//     completion, carrying the exact blame decomposition
//     QueueNS + GCNS + ServiceNS + RetryNS == end-to-end latency — the same
//     invariant discipline as the span layer's Σstw == pause-total, but in
//     pure int64 arithmetic so equality is exact, not approximate;
//   - fleet-window: per-replica in-flight, goodput and SLO burn rate over a
//     fixed virtual-time window grid at the obs sampler cadence (10ms),
//     stride-doubled like the sampler once the run outgrows the row budget.
//
// The decomposition is computed per attempt from the replica's own pause
// log. With A the attempt's arrival, D its dispatch and E its completion:
//
//	queue   = (D − A) − overlap(pauses, A, D)   // waiting, net of STW
//	gc      = overlap(pauses, A, E)             // STW wall the request sat through
//	service = (E − D) − overlap(pauses, D, E)   // mutator work + pacer stalls
//
// overlap is additive over the split at D, so queue+gc+service == E−A
// identically. Retry overhead is everything before the final attempt's
// arrival (RetryNS = A_final − A_first), which closes the telescoping sum:
// the four components add up to E_final − A_first, the measured end-to-end
// latency. Completions never happen inside a pause (mutators are blocked
// until endPause appends the interval), so at completion time every
// overlapping pause is already in the log.
//
// Disabled-path discipline (PR 3): a run holds a nil *tracer when the
// recorder is disabled, and every method nil-guards — the whole feature
// costs one branch per call site and zero allocations.

// fleetWindowNS is the window grid width: the sampler's 10ms cadence.
const fleetWindowNS = int64(sample.DefaultInterval)

// maxFleetWindowRows bounds emitted windows per replica before the grid
// width doubles, mirroring the sampler's stride doubling. The budget is
// per-replica (one closed window emits one event per replica), so total
// fleet-window volume scales as N × budget and a 1024-replica fleet is not
// starved down to two windows.
const maxFleetWindowRows = 2048

// reqState is the tracer's per-logical-request accumulator. Attempts are
// strictly sequential (a retry is injected at the previous attempt's
// completion instant), so one in-place record per ID suffices.
type reqState struct {
	firstArr int64 // first attempt's arrival; -1 until observed
	dispatch int64 // current attempt's dispatch time
	attempts int32
}

// tracer is the fleet's request-tracing state. A nil tracer is the disabled
// recorder path; every method starts with a nil guard.
type tracer struct {
	rec   obs.Recorder
	bench string
	col   string

	reqs []reqState
	logs []*trace.Log // per-replica pause logs, shared with the replicas

	// Window state, one slot per replica. The grid is anchored at virtual
	// time zero (every replica engine starts there), flushed lazily before
	// the first route/completion past each boundary, so window contents are
	// exact and the stream stays in non-decreasing time order.
	inFlight []int64
	comps    []int64
	viols    []int64
	winStart int64
	winLen   int64
	rows     int64   // closed windows so far (the per-replica event count)
	sloNS    float64 // first SLA rung's latency bound
	budget   float64 // its error budget, 1 − percentile/100
}

var tracerPool = sync.Pool{New: func() any { return new(tracer) }}

// grow returns s resized to n, reusing capacity; fresh elements (and, when
// reusing, stale ones) are left to the caller to reset.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// newTracer builds the tracer for one fleet run; call only with an enabled
// recorder (newFleetRun leaves tr nil otherwise). Tracers are pooled: per-request
// and per-replica accumulators are reused across runs so an observed fleet's
// steady-state allocations stay constant in N.
func newTracer(rec obs.Recorder, d *workload.Descriptor, cfg Config, reps []*workload.Replica) *tracer {
	tr := tracerPool.Get().(*tracer)
	tr.rec = rec
	tr.bench = d.Name
	tr.col = cfg.Run.Collector.String()
	tr.reqs = grow(tr.reqs, cfg.Requests)
	tr.logs = grow(tr.logs, len(reps))
	tr.inFlight = grow(tr.inFlight, len(reps))
	tr.comps = grow(tr.comps, len(reps))
	tr.viols = grow(tr.viols, len(reps))
	tr.winStart, tr.winLen, tr.rows = 0, fleetWindowNS, 0
	for i := range tr.reqs {
		tr.reqs[i] = reqState{firstArr: -1}
	}
	for i := range tr.inFlight {
		tr.inFlight[i], tr.comps[i], tr.viols[i] = 0, 0, 0
	}
	sla := latency.DefaultSLAs[0]
	if len(cfg.SLAs) > 0 {
		sla = cfg.SLAs[0]
	}
	tr.sloNS = sla.BoundNS
	tr.budget = 1 - sla.Percentile/100
	for i, rp := range reps {
		tr.logs[i] = rp.Log()
		// The dispatch hook marks the queue-wait / service boundary; closing
		// over the tracer only, not the replica, keeps the hot path a single
		// indexed store.
		rp.SetDispatchHook(tr.dispatched)
	}
	return tr
}

// route records one balancer decision: request id's attempt is injected at
// virtual time tns onto dec.Replica.
func (tr *tracer) route(tns int64, id int32, dec Decision) {
	if tr == nil {
		return
	}
	tr.flushWindows(tns)
	tr.reqs[id].attempts++
	tr.inFlight[dec.Replica]++
	tr.rec.Record(obs.Event{
		Kind:      obs.KindFleetRoute,
		TNS:       tns,
		Benchmark: tr.bench,
		Collector: tr.col,
		Phase:     dec.Reason,
		Value:     float64(id),
		Aux:       float64(dec.Avoided),
		Cycle:     int64(tr.reqs[id].attempts),
		Replica:   dec.Replica + 1,
		InFlight:  tr.inFlight[dec.Replica],
	})
}

// dispatched is the replica dispatch hook: request id left the queue for an
// idle worker at virtual time at. IDs are fleet-unique and attempts are
// sequential, so a flat store indexed by ID is sufficient.
func (tr *tracer) dispatched(id int32, at sim.Time) {
	if tr == nil {
		return
	}
	tr.reqs[id].dispatch = at
}

// complete records one attempt's completion on replica idx. final reports
// whether the run decided this attempt ends the logical request (no retry
// follows); only then is the fleet-request blame event emitted.
func (tr *tracer) complete(idx int, c workload.Completion, final bool) {
	if tr == nil {
		return
	}
	tr.flushWindows(c.End)
	tr.inFlight[idx]--
	tr.comps[idx]++
	lat := float64(c.End - c.Start)
	if lat > tr.sloNS {
		tr.viols[idx]++
	}
	st := &tr.reqs[c.ID]
	if st.firstArr < 0 {
		st.firstArr = c.Start
	}
	if !final {
		return
	}

	pauses := tr.logs[idx].Pauses
	ovAD, _ := overlapPauses(pauses, c.Start, st.dispatch)
	ovDE, _ := overlapPauses(pauses, st.dispatch, c.End)
	_, nPauses := overlapPauses(pauses, c.Start, c.End)
	queue := (st.dispatch - c.Start) - ovAD
	service := (c.End - st.dispatch) - ovDE
	tr.rec.Record(obs.Event{
		Kind:      obs.KindFleetRequest,
		TNS:       c.End,
		Benchmark: tr.bench,
		Collector: tr.col,
		Value:     float64(c.ID),
		Aux:       float64(st.firstArr),
		DurNS:     float64(c.End - st.firstArr),
		Cycle:     int64(st.attempts),
		Replica:   idx + 1,
		QueueNS:   queue,
		GCNS:      ovAD + ovDE,
		ServiceNS: service,
		RetryNS:   c.Start - st.firstArr,
		GCPauses:  int64(nPauses),
	})
}

// finish flushes the window grid through the end of the run, closing with
// one final (possibly partial) window so goodput covers every completion.
func (tr *tracer) finish(endT int64) {
	if tr == nil {
		return
	}
	tr.flushWindows(endT)
	if endT > tr.winStart {
		tr.emitWindows(endT)
	}
}

// flushWindows emits every whole window that closed at or before t. Lazy
// flushing keeps windows exact: a run processes injections and completions
// in non-decreasing virtual-time order, so by the time an event at t
// arrives, the contents of any window ending ≤ t are complete.
func (tr *tracer) flushWindows(t int64) {
	for tr.winStart+tr.winLen <= t {
		tr.emitWindows(tr.winStart + tr.winLen)
		if tr.rows >= maxFleetWindowRows {
			tr.winLen *= 2
		}
	}
}

// emitWindows writes one fleet-window event per replica for the window
// [winStart, end), then opens the next window at end.
func (tr *tracer) emitWindows(end int64) {
	winSec := float64(end-tr.winStart) / 1e9
	for i := range tr.comps {
		good := tr.comps[i] - tr.viols[i]
		var goodput, burn float64
		if winSec > 0 {
			goodput = float64(good) / winSec
		}
		if tr.comps[i] > 0 && tr.budget > 0 {
			burn = float64(tr.viols[i]) / float64(tr.comps[i]) / tr.budget
		}
		tr.rec.Record(obs.Event{
			Kind:      obs.KindFleetWindow,
			TNS:       end,
			Benchmark: tr.bench,
			Collector: tr.col,
			DurNS:     float64(end - tr.winStart),
			Value:     float64(tr.comps[i]),
			Aux:       float64(tr.viols[i]),
			Replica:   i + 1,
			InFlight:  tr.inFlight[i],
			Goodput:   goodput,
			BurnRate:  burn,
		})
		tr.comps[i], tr.viols[i] = 0, 0
	}
	tr.rows++
	tr.winStart = end
}

// release returns the tracer to the pool after a successful run, dropping
// recorder and pause-log references so pooling never extends their lifetime.
func (tr *tracer) release() {
	if tr == nil {
		return
	}
	tr.rec = nil
	for i := range tr.logs {
		tr.logs[i] = nil
	}
	tracerPool.Put(tr)
}

// overlapPauses returns the total STW wall time inside [lo, hi] and the
// number of distinct pauses it intersects. Pauses are appended in
// non-decreasing, non-overlapping time order, so a binary search for the
// first pause ending after lo bounds the scan.
func overlapPauses(pauses []trace.Pause, lo, hi int64) (int64, int) {
	if hi <= lo {
		return 0, 0
	}
	// Binary search: first pause with End > lo.
	i, j := 0, len(pauses)
	for i < j {
		m := int(uint(i+j) >> 1)
		if pauses[m].End <= lo {
			i = m + 1
		} else {
			j = m
		}
	}
	var sum int64
	var n int
	for ; i < len(pauses) && pauses[i].Start < hi; i++ {
		a, b := pauses[i].Start, pauses[i].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			n++
		}
	}
	return sum, n
}
