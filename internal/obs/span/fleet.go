package span

import (
	"sort"

	"chopin/internal/obs"
)

// Fleet trace assembly: folding a merged multi-replica telemetry stream
// (internal/fleet with an enabled recorder) back into one cross-replica
// trace per fleet run. Each replica contributes its own span tree — GC
// cycles, STW pauses, pacer stalls, samples, emitted from inside its engine
// and stamped with its replica index — and the fleet driver contributes the
// request layer: balancer routes, per-request blame decompositions, retries
// and per-replica metric windows. The result is what the fleet renderers
// (traceview.WriteFleetChrome / WriteFleetTimeline) and the obsreport -fleet
// tables consume.

// FleetRequest is one completed logical request with its exact blame split
// (decoded from a KindFleetRequest event). QueueNS+GCNS+ServiceNS+RetryNS
// equals E2ENS exactly — the tracer's int64 invariant survives the JSON
// round-trip because every value is far below 2^53.
type FleetRequest struct {
	ID       int64
	Replica  int // 0-based
	Start    int64
	End      int64
	E2ENS    int64
	Attempts int
	QueueNS  int64
	GCNS     int64
	ServNS   int64
	RetryNS  int64
	GCPauses int64
}

// FleetRoute is one balancer decision.
type FleetRoute struct {
	TNS      int64
	ID       int64
	Replica  int // 0-based
	Reason   string
	Avoided  int
	Attempt  int
	InFlight int64
}

// FleetRetry is one timed-out attempt's re-injection.
type FleetRetry struct {
	TNS     int64
	ID      int64
	Replica int // 0-based; the replica whose slow attempt triggered it
	Depth   int
	LatNS   float64
}

// FleetWindow is one per-replica metric window.
type FleetWindow struct {
	EndNS       int64
	DurNS       int64
	Replica     int // 0-based
	Completions int64
	Violations  int64
	InFlight    int64
	Goodput     float64
	BurnRate    float64
}

// ReplicaTrack is one replica's view of a fleet run: its own span tree plus
// its metric windows.
type ReplicaTrack struct {
	Index   int // 0-based
	Tree    *Tree
	Windows []FleetWindow
}

// FleetTrace is one fleet run's assembled cross-replica trace.
type FleetTrace struct {
	Run       string
	Benchmark string
	Collector string
	Replicas  []*ReplicaTrack
	Requests  []FleetRequest
	Routes    []FleetRoute
	Retries   []FleetRetry
	// EndNS is the largest virtual timestamp observed across every layer.
	EndNS int64
}

// fleetAsm accumulates one run's fleet trace while streaming events.
type fleetAsm struct {
	ft  FleetTrace
	run obs.Name
	// bench and coll become ft.Benchmark and ft.Collector when the trace
	// is finished.
	bench, coll obs.Name
	reps        map[int]*ReplicaTrack // by 0-based index
	sub         map[int]*builder      // per-replica span builders
	isFleet     bool                  // run carries fleet-layer events
	// The counts of the run's routes, requests and retries, and of each
	// replica's windows and samples (by 1-based replica), taken before the
	// events are folded in.
	routes, requests, retries int
	windows, samples          map[int32]int
	// benchFleet marks that Benchmark came from a fleet-layer event, which
	// carries the workload name; engine job events carry the literal job
	// kind ("fleet") and must not win.
	benchFleet bool
}

// ident captures run identity from a fleet-layer event, overriding whatever
// an earlier engine-level event supplied.
func (a *fleetAsm) ident(e *obs.Event) {
	a.isFleet = true
	a.see(e.TNS)
	if !a.benchFleet && e.Benchmark != 0 {
		a.bench = e.Benchmark
		a.benchFleet = true
	}
}

// replica returns (creating on demand) the track for the 1-based replica
// an event carries.
func (a *fleetAsm) replica(replica int32) *ReplicaTrack {
	i := int(replica) - 1
	rt := a.reps[i]
	if rt == nil {
		rt = &ReplicaTrack{Index: i, Windows: sized[FleetWindow](a.windows[replica])}
		a.reps[i] = rt
		b := newBuilder(a.run, i+1)
		b.tree.Samples = sized[obs.Event](a.samples[replica])
		a.sub[i] = b
	}
	return rt
}

func (a *fleetAsm) see(tns int64) {
	if tns > a.ft.EndNS {
		a.ft.EndNS = tns
	}
}

// BuildFleet folds a telemetry stream into one FleetTrace per fleet run,
// sorted by run key: the order runs first appear in is the order the
// engine's cells finished, which varies from run to run, and a run's Name
// depends on interning order. Runs with no fleet-layer events (ordinary
// single-process invocations) are skipped — render those with Build. Like
// Build, events from different runs may interleave; within a run they must
// be in emission order.
func BuildFleet(events []obs.Event) []*FleetTrace {
	asms := map[obs.Name]*fleetAsm{}
	var order []*fleetAsm
	var last *fleetAsm
	// lookup returns the assembler of run, making it on first sight. Runs
	// arrive in long stretches, so the last one usually matches.
	lookup := func(run obs.Name) *fleetAsm {
		if last != nil && last.run == run {
			return last
		}
		last = asms[run]
		if last == nil {
			last = &fleetAsm{
				ft:      FleetTrace{Run: run.String()},
				run:     run,
				reps:    map[int]*ReplicaTrack{},
				sub:     map[int]*builder{},
				windows: map[int32]int{},
				samples: map[int32]int{},
			}
			asms[run] = last
			order = append(order, last)
		}
		return last
	}
	// Count first, so each run's and each replica's slices are allocated
	// once at their final size instead of grown event by event.
	for i := range events {
		lookup(events[i].Run).count(&events[i])
	}
	for _, a := range order {
		a.ft.Routes = sized[FleetRoute](a.routes)
		a.ft.Requests = sized[FleetRequest](a.requests)
		a.ft.Retries = sized[FleetRetry](a.retries)
	}
	for i := range events {
		lookup(events[i].Run).event(&events[i])
	}
	sort.Slice(order, func(i, j int) bool { return order[i].ft.Run < order[j].ft.Run })
	var out []*FleetTrace
	for _, a := range order {
		if !a.isFleet {
			continue
		}
		a.ft.Benchmark, a.ft.Collector = a.bench.String(), a.coll.String()
		idxs := make([]int, 0, len(a.reps))
		for i := range a.reps {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			rt := a.reps[i]
			rt.Tree = a.sub[i].finish()
			if rt.Tree.EndNS > a.ft.EndNS {
				a.ft.EndNS = rt.Tree.EndNS
			}
			a.ft.Replicas = append(a.ft.Replicas, rt)
		}
		out = append(out, &a.ft)
	}
	return out
}

// sized returns an empty slice with room for n elements, nil when n is 0.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// count tallies e into the sizes of the slices its run will hold.
func (a *fleetAsm) count(e *obs.Event) {
	switch e.Kind {
	case obs.KindFleetRoute:
		a.routes++
	case obs.KindFleetRequest:
		a.requests++
	case obs.KindFleetRetry:
		a.retries++
	case obs.KindFleetWindow:
		a.windows[e.Replica]++
	case obs.KindSample:
		a.samples[e.Replica]++
	}
}

func (a *fleetAsm) event(e *obs.Event) {
	if a.bench == 0 {
		a.bench = e.Benchmark
	}
	if a.coll == 0 {
		a.coll = e.Collector
	}
	switch e.Kind {
	case obs.KindFleetRoute:
		a.ident(e)
		a.replica(e.Replica)
		a.ft.Routes = append(a.ft.Routes, FleetRoute{
			TNS: e.TNS, ID: int64(e.Value), Replica: int(e.Replica) - 1,
			Reason: e.Phase.String(), Avoided: int(e.Aux), Attempt: int(e.Cycle),
			InFlight: int64(e.InFlight),
		})
	case obs.KindFleetRequest:
		a.ident(e)
		a.replica(e.Replica)
		a.ft.Requests = append(a.ft.Requests, FleetRequest{
			ID: int64(e.Value), Replica: int(e.Replica) - 1,
			Start: int64(e.Aux), End: e.TNS, E2ENS: int64(e.DurNS),
			Attempts: int(e.Cycle),
			QueueNS:  e.QueueNS, GCNS: e.GCNS, ServNS: e.ServiceNS,
			RetryNS: e.RetryNS, GCPauses: int64(e.GCPauses),
		})
	case obs.KindFleetRetry:
		a.ident(e)
		rep := int(e.Replica) - 1
		if e.Replica == 0 {
			rep = -1 // pre-PR-9 streams carried no replica on retries
		}
		a.ft.Retries = append(a.ft.Retries, FleetRetry{
			TNS: e.TNS, ID: int64(e.Value), Replica: rep,
			Depth: int(e.Aux), LatNS: e.DurNS,
		})
	case obs.KindFleetWindow:
		a.ident(e)
		rt := a.replica(e.Replica)
		rt.Windows = append(rt.Windows, FleetWindow{
			EndNS: e.TNS, DurNS: int64(e.DurNS), Replica: rt.Index,
			Completions: int64(e.Value), Violations: int64(e.Aux),
			InFlight: int64(e.InFlight), Goodput: e.Goodput, BurnRate: e.BurnRate,
		})
	case obs.KindFleetReplica, obs.KindFleetReport:
		a.ident(e)
	default:
		// Replica-stamped engine telemetry feeds that replica's span tree;
		// unstamped events (engine job bookkeeping) carry no fleet structure.
		if e.Replica > 0 {
			a.sub[a.replica(e.Replica).Index].event(e)
		}
	}
}

// TopSlowest returns the k slowest requests by end-to-end latency,
// descending, ties broken by request ID for determinism.
func TopSlowest(reqs []FleetRequest, k int) []FleetRequest {
	out := append([]FleetRequest(nil), reqs...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].E2ENS != out[j].E2ENS {
			return out[i].E2ENS > out[j].E2ENS
		}
		return out[i].ID < out[j].ID
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// ReplicaCorr is one row of the pause/traffic correlation table: how much
// STW a replica generated, how much traffic the balancer sent it, and how
// much request latency its pauses were blamed for.
type ReplicaCorr struct {
	Index    int
	Routes   int64 // injections the balancer sent here
	Requests int64 // logical requests that finished here
	Retries  int64 // retries triggered by slow attempts served here
	// PauseNS and Pauses summarize the replica's own STW record (its span
	// tree); BlamedGCNS is the GC time requests actually sat through —
	// pause wall weighted by collisions, the paper's "attributed" view.
	PauseNS    int64
	Pauses     int64
	BlamedGCNS int64
	QueueNS    int64 // total queue wait blamed to requests finishing here
	MeanE2ENS  float64
}

// CorrelateReplicas derives the per-replica pause/traffic correlation table
// from an assembled fleet trace.
func CorrelateReplicas(ft *FleetTrace) []ReplicaCorr {
	rows := make([]ReplicaCorr, len(ft.Replicas))
	byIdx := map[int]*ReplicaCorr{}
	for i, rt := range ft.Replicas {
		rows[i].Index = rt.Index
		byIdx[rt.Index] = &rows[i]
		for _, s := range rt.Tree.Spans {
			if s.Track == TrackSTW {
				rows[i].Pauses++
				rows[i].PauseNS += s.DurNS()
			}
		}
	}
	for _, r := range ft.Routes {
		if c := byIdx[r.Replica]; c != nil {
			c.Routes++
		}
	}
	for _, r := range ft.Retries {
		if c := byIdx[r.Replica]; c != nil {
			c.Retries++
		}
	}
	for _, q := range ft.Requests {
		c := byIdx[q.Replica]
		if c == nil {
			continue
		}
		c.Requests++
		c.BlamedGCNS += q.GCNS
		c.QueueNS += q.QueueNS
		c.MeanE2ENS += float64(q.E2ENS)
	}
	for i := range rows {
		if rows[i].Requests > 0 {
			rows[i].MeanE2ENS /= float64(rows[i].Requests)
		}
	}
	return rows
}

// RetryStats summarizes a run's retry behaviour for storm forensics.
type RetryStats struct {
	Total    int64
	Unique   int64 // distinct request IDs that retried at least once
	MaxDepth int
	// PeakWindowStart/PeakCount locate the worst burst: the metric-window
	// bucket containing the most re-injections — where the storm peaked.
	PeakWindowStart int64
	PeakCount       int64
	WindowNS        int64
}

// SummarizeRetries buckets a run's retries on the metric-window grid (width
// taken from the trace's windows, 10ms when absent) and reports the storm
// shape.
func SummarizeRetries(ft *FleetTrace) RetryStats {
	st := RetryStats{WindowNS: 10_000_000}
	for _, rt := range ft.Replicas {
		if len(rt.Windows) > 0 && rt.Windows[0].DurNS > 0 {
			st.WindowNS = rt.Windows[0].DurNS
			break
		}
	}
	seen := map[int64]bool{}
	buckets := map[int64]int64{}
	for _, r := range ft.Retries {
		st.Total++
		if !seen[r.ID] {
			seen[r.ID] = true
			st.Unique++
		}
		if r.Depth > st.MaxDepth {
			st.MaxDepth = r.Depth
		}
		buckets[r.TNS/st.WindowNS]++
	}
	for b, n := range buckets {
		if n > st.PeakCount || (n == st.PeakCount && b*st.WindowNS < st.PeakWindowStart) {
			st.PeakCount = n
			st.PeakWindowStart = b * st.WindowNS
		}
	}
	return st
}

// BlameTotals sums the blame components across requests. The grand total
// equals the summed end-to-end latency exactly.
type BlameTotals struct {
	QueueNS, GCNS, ServNS, RetryNS, E2ENS int64
	Requests                              int64
}

// SumBlame aggregates the blame decomposition over a request set.
func SumBlame(reqs []FleetRequest) BlameTotals {
	var t BlameTotals
	for _, q := range reqs {
		t.QueueNS += q.QueueNS
		t.GCNS += q.GCNS
		t.ServNS += q.ServNS
		t.RetryNS += q.RetryNS
		t.E2ENS += q.E2ENS
		t.Requests++
	}
	return t
}
